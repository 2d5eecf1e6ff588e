import io
import json
import math
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capbound import proof
from capbound.bounds import PRECISION, exponent_c, verify_entropy_lemma
from capbound.cli import main
from capbound.errors import HypothesisViolation, ProgressionFound
from capbound.gf import PrimeField, _row_reduce, unit_kernel_vector
from capbound.monomials import _exponent_array, dim_L
from capbound.polyspace import _coordinate_products, _vandermonde
from capbound.proof import (
    _asymptotic,
    diagonal_certificate,
    prove_size_bound,
    select_unit_witness,
    value_table,
    verify_transcript,
)
from capbound.reference import (
    ReducedPoly,
    check_diagonal_size_bound,
    check_gram_rank_bound,
    enumerate_monomials,
    evaluate_all,
    gram_matrix,
    indicator_poly,
    interpolate,
    poly_from_vector,
    poly_to_vector,
    rank,
    row_space_intersection,
    zero_set,
)
from capbound.search import greedy_progression_free
from capbound.sets import PointSet, is_progression_free, pair_sums

F3 = PrimeField(3)


def all_monomials(field, n):
    return enumerate_monomials(n, field, (field.p - 1) * n)


def extend_by_zero(values, points):
    """Value table over F_p^n of the function with `values` on `points`, 0 elsewhere."""
    table = [0] * points.field.p**points.n
    for i, v in zip(points.indices(), values):
        table[i] = v
    return table


def kernel_polys(points):
    """A basis of V from the entry-by-entry kernel of `oracles`, as polynomials;
    the tests below hold it to the definitions of K and L, and `select_unit_witness`
    to its dimension."""
    basis = oracles.left_kernel_basis(points.indices(), points.field.p, points.n)
    assert select_unit_witness(points)[0].size == len(basis)
    return [interpolate(extend_by_zero(v, points), points.field, points.n) for v in basis]


class TestSpaceBuilders:
    def test_empty_support(self):
        empty = PointSet.empty(F3, 3)
        assert select_unit_witness(empty) == (empty, [])

    def test_dimension_matches_set_size(self):
        rng = np.random.default_rng(4)
        monos = all_monomials(F3, 2)
        for _ in range(5):
            idxs = rng.choice(9, size=int(rng.integers(1, 9)), replace=False)
            ps = PointSet.from_indices(F3, 2, idxs)
            block = _coordinate_products(np.array(ps.points()), monos, _vandermonde(3), F3)
            assert rank(block, 3) == ps.size
            # row c holds the evaluations c^beta, in graded-lex order of beta
            for row, c in zip(block.tolist(), ps.points()):
                assert row == [c[0] ** b0 * c[1] ** b1 % 3 for b0, b1 in monos]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_kernel_vector_as_the_indicator_block(self, data):
        """The evaluation block [c^beta] that `select_unit_witness` eliminates
        and the indicator block it replaced, M[c, alpha] the coefficient of
        x^alpha in the indicator of c at alpha = (p-1, ..., p-1) - beta, built
        entry by entry, have row-equivalent transposes: the same free rows and
        the same kernel vector."""
        p, n = data.draw(st.sampled_from([(3, 3), (5, 3), (7, 2), (13, 2)]))
        field = PrimeField(p)
        idxs = data.draw(st.sets(st.integers(0, p**n - 1), min_size=1, max_size=40))
        coords = np.array(PointSet.from_indices(field, n, idxs).points())
        low = _exponent_array(n, p - 1, (p - 1) * n // 3 - 1)
        indicator = np.array(
            [
                [
                    math.prod(oracles.indicator_coefficient(s, p - 1 - b, p) for s, b in zip(c, beta)) % p
                    for beta in low.tolist()
                ]
                for c in coords.tolist()
            ],
            dtype=np.int64,
        )
        evaluation = _coordinate_products(coords, low, _vandermonde(p), field)
        (free, lam), (free_ind, lam_ind) = (unit_kernel_vector(b, p) for b in (evaluation, indicator))
        assert free.tolist() == free_ind.tolist() and lam.tolist() == lam_ind.tolist()

    def test_low_degree_basis(self):
        # with every function allowed on the support, V is the whole slice L
        V = kernel_polys(PointSet.full(F3, 3))
        assert len(V) == 23 == dim_L(3, 4, F3) == 27 - dim_L(3, 1, F3)
        assert all(f.degree <= 4 for f in V)
        with pytest.raises(ValueError, match="3 \\| n"):
            select_unit_witness(PointSet.full(F3, 4))


class TestIntersection:
    def test_full_support_gives_low_degree_space(self):
        V = kernel_polys(PointSet.full(F3, 3))
        L = [poly_to_vector(ReducedPoly.monomial(F3, 3, m)) for m in enumerate_monomials(3, F3, 4)]
        assert rank([poly_to_vector(f) for f in V], 3) == len(L)
        assert rank(L + [poly_to_vector(f) for f in V], 3) == len(L)

    def test_members_lie_in_both_spans(self, cap9_search):
        _, doubles = pair_sums(cap9_search.witness)
        V = kernel_polys(doubles)
        assert len(V) >= doubles.size + dim_L(3, 4, F3) - 27
        assert rank([poly_to_vector(f) for f in V], 3) == len(V)
        for f in V:
            assert f.degree is None or f.degree <= 4
            assert (zero_set(f).complement() & doubles.complement()).size == 0


class TestSelection:
    def test_single_indicator(self):
        # an indicator has the top monomial (p-1, ..., p-1), so it is not in L
        c = PointSet.from_points(F3, 3, [(1, 0, 2)])
        selected, lam = select_unit_witness(c)
        assert selected.size == 0 and lam == [0]

    def test_witness_is_unit_on_selection(self, cap9_search):
        _, doubles = pair_sums(cap9_search.witness)
        V = oracles.left_kernel_basis(doubles.indices(), 3, 3)
        selected, lam = select_unit_witness(doubles)
        assert selected.size == len(V)
        witness = interpolate(extend_by_zero(lam, doubles), F3, 3)
        table = evaluate_all(witness)
        for i in selected:
            assert table[i] == 1
        # witness lies in V: a combination of the basis, of degree <= 4
        assert rank(V + [lam], 3) == len(V)
        assert witness.degree <= 4
        complement = zero_set(witness).complement()
        assert (complement & doubles.complement()).size == 0

    @pytest.mark.parametrize("p, n, most", [(3, 3, 27), (5, 3, 60), (7, 3, 90), (3, 6, 110)])
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(0, 110), seed=st.integers(0, 2**32))
    def test_matches_two_step_oracle(self, p, n, most, size, seed):
        """One right-to-left elimination selects the C' and lam of the kernel
        basis's RREF; supports above h = 4, 20, 56, 78 points have V != 0."""
        idxs = sorted(random.Random(seed).sample(range(p**n), min(size, most)))
        selected, lam = select_unit_witness(PointSet.from_indices(PrimeField(p), n, idxs))
        ref_selected, ref_lam = oracles.unit_selection(idxs, p, n)
        assert selected.indices() == ref_selected
        assert lam == (ref_lam if idxs else [])

    def test_work_bound_admits_its_boundary(self, cap9_search, monkeypatch):
        """The 9-cap's |C| x h block has 9 * 4 = 36 entries: a bound of 36 admits it, 35 refuses it."""
        _, doubles = pair_sums(cap9_search.witness)
        monkeypatch.setattr(proof, "WORK_BOUND", 36)
        assert select_unit_witness(doubles)[0].size == 5
        monkeypatch.setattr(proof, "WORK_BOUND", 35)
        with pytest.raises(ValueError, match="9 times h = 4 entries, above the work bound 35"):
            select_unit_witness(doubles)


def zassenhaus_reference(points):
    """dim V, C' and the witness by the dense path: intersect K and L as
    coefficient spans, then solve for the member equal to 1 on the pivots,
    both by eliminating a block: the basis's values on `points`, then the
    transposed pivot columns beside a column of ones."""
    field, n, p = points.field, points.n, points.field.p
    K = [poly_to_vector(indicator_poly(c, field)) for c in points.points()]
    L = [
        poly_to_vector(ReducedPoly.monomial(field, n, m))
        for m in enumerate_monomials(n, field, 2 * (p - 1) * n // 3)
    ]
    V = row_space_intersection(K, L, field)
    if not V:
        return 0, [], None
    idxs = points.indices()
    tables = [evaluate_all(poly_from_vector(v, field, n)) for v in V]
    eval_mat = np.array([[t[i] for i in idxs] for t in tables], dtype=np.int64)
    pivots, _ = _row_reduce(eval_mat.T, p)
    aug = np.column_stack([eval_mat[:, pivots].T, np.ones(len(pivots), dtype=np.int64)])
    aug_pivots, reduced = _row_reduce(aug.T, p)
    assert aug_pivots == list(range(len(pivots)))  # the pivot columns are independent
    lam = reduced[-1].tolist()
    combo = sum(c * np.array(v, dtype=np.int64) for c, v in zip(lam, V)) % p
    return len(V), [idxs[j] for j in pivots], poly_from_vector(combo, field, n)


def assert_matches_reference(points, dim_v=None):
    ref_dim, ref_selected, ref_witness = zassenhaus_reference(points)
    if dim_v is not None:
        assert ref_dim == dim_v
    selected, lam = select_unit_witness(points)
    assert selected.size == ref_dim
    if not ref_dim:
        return
    assert selected.indices() == ref_selected
    assert interpolate(extend_by_zero(lam, points), points.field, points.n) == ref_witness


class TestZassenhausCrossCheck:
    def test_nine_cap(self, cap9_search):
        _, doubles = pair_sums(cap9_search.witness)
        assert_matches_reference(doubles, dim_v=5)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_seeded_progression_free_sets(self, p):
        for seed in range(3):
            A = greedy_progression_free(PrimeField(p), 3, order_seed=seed)
            assert_matches_reference(pair_sums(A)[1])

    @pytest.mark.parametrize("p", [5, 7])
    def test_seeded_supports_above_h(self, p):
        # greedy sets in F_5^3 and F_7^3 give V = 0; supports larger than
        # h = dim(degree <= (p-1)n/3 - 1) force a nonzero V and a witness
        field = PrimeField(p)
        h = dim_L(3, p - 2, field)
        rng = np.random.default_rng(p)
        for extra in (1, 7):
            idxs = rng.choice(p**3, size=h + extra, replace=False)
            assert_matches_reference(PointSet.from_indices(field, 3, idxs))

    def test_product_cap(self, cap9_search):
        cap = cap9_search.witness.points()
        product = PointSet.from_points(F3, 6, [a + b for a in cap for b in cap])
        assert_matches_reference(pair_sums(product)[1], dim_v=25)


class TestDiagonalCertificate:
    def test_singleton(self):
        pt = PointSet.from_points(F3, 1, [(1,)])
        f = indicator_poly((2,), F3)  # f(1+1) = 1
        diag = diagonal_certificate(evaluate_all(f), pt)
        assert diag.tolist() == [1]

    def test_rejects_offdiagonal(self):
        f = ReducedPoly.constant(F3, 1, 1)
        pts = PointSet.from_points(F3, 1, [(0,), (1,)])
        with pytest.raises(HypothesisViolation, match="not diagonal"):
            diagonal_certificate(evaluate_all(f), pts)

    def test_rejects_zero_diagonal(self):
        f = ReducedPoly.zero(F3, 1)
        pt = PointSet.from_points(F3, 1, [(0,)])
        with pytest.raises(HypothesisViolation, match="zero diagonal"):
            diagonal_certificate(evaluate_all(f), pt)
        # f(2 * 0) = 1, f(0 + 1) = 0 and f(2 * 1) = 0: the point named is 1, not the first
        with pytest.raises(HypothesisViolation, match="zero diagonal") as raised:
            diagonal_certificate([1, 0, 0], PointSet.from_points(F3, 1, [(0,), (1,)]))
        assert raised.value.evidence == {"point": [1]}


class TestRankBoundCheck:
    def test_constant(self):
        rec = check_gram_rank_bound(
            ReducedPoly.constant(F3, 1, 1), PointSet.full(F3, 1), PointSet.full(F3, 1)
        )
        assert rec.rank_gram == rec.rank_shift == 1
        assert rec.factorization_ok and rec.holds

    def test_square(self):
        rec = check_gram_rank_bound(
            ReducedPoly(F3, 1, {(2,): 1}), PointSet.full(F3, 1), PointSet.full(F3, 1)
        )
        assert rec.rank_gram <= 3 == rec.rank_shift
        assert rec.factorization_ok and rec.holds

    def test_random_instances(self):
        from test_polyspace import random_poly

        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            f = random_poly(rng, F3, n)
            total = 3**n
            a = PointSet.from_indices(
                F3, n, rng.choice(total, size=rng.integers(1, total + 1), replace=False)
            )
            b = PointSet.from_indices(
                F3, n, rng.choice(total, size=rng.integers(1, total + 1), replace=False)
            )
            rec = check_gram_rank_bound(f, a, b)
            assert rec.factorization_ok and rec.holds

    def test_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            check_gram_rank_bound(
                ReducedPoly.zero(F3, 7), PointSet.empty(F3, 7), PointSet.empty(F3, 7)
            )


class TestDiagonalSizeBound:
    def test_trivial(self):
        rec = check_diagonal_size_bound(
            ReducedPoly.constant(F3, 1, 1), PointSet.from_points(F3, 1, [(0,)]), 0
        )
        assert rec.set_size == 1 and rec.split_bound == 2 and rec.holds

    def test_pipeline_instance(self, cap9_search):
        transcript = prove_size_bound(cap9_search.witness)
        a_prime = PointSet.from_indices(F3, 3, transcript["selected_points"])
        rec = check_diagonal_size_bound(interpolate(value_table(transcript), F3, 3), a_prime, 2)
        assert rec.holds and rec.split_bound == 20

    def test_hypothesis_violation(self):
        f = ReducedPoly.zero(F3, 1)  # f(a+a) = 0 violates the diagonal condition
        with pytest.raises(HypothesisViolation, match="f\\(a\\+b\\)"):
            check_diagonal_size_bound(f, PointSet.from_points(F3, 1, [(0,)]), 1)

    def test_degree_precondition(self):
        f = ReducedPoly(F3, 1, {(2,): 1})
        with pytest.raises(ValueError, match="degree"):
            check_diagonal_size_bound(f, PointSet.from_points(F3, 1, [(0,)]), 0)


class TestPipeline:
    def test_requires_multiple_of_three(self):
        with pytest.raises(ValueError, match=re.escape("3 | n")):
            prove_size_bound(PointSet.empty(F3, 2))

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_cut_must_be_an_integer(self, p, n):
        """`prove` and the entropy lemma take exactly the n with 3 | (p-1)n:
        every n >= 1 when p = 1 mod 3, the multiples of 3 otherwise."""
        field = PrimeField(p)
        if (p - 1) * n % 3:
            with pytest.raises(ValueError, match=re.escape("3 | n")):
                prove_size_bound(PointSet.empty(field, n))
            with pytest.raises(ValueError, match=re.escape("3 | n")):
                verify_entropy_lemma(field, n)
        else:
            assert all(c["holds"] for c in prove_size_bound(PointSet.empty(field, n))["checks"])
            assert verify_entropy_lemma(field, n).holds

    @pytest.mark.parametrize("p, n", [(3, 4), (5, 2)])
    def test_verify_refuses_a_non_integral_cut(self, tmp_path, p, n):
        """A transcript forged for an ambient where 3 ∤ (p-1)n is refused
        (exit 2) with the message `prove` gives for that ambient."""
        field = PrimeField(p)
        A = greedy_progression_free(field, n, order_seed=0)
        with pytest.raises(ValueError) as refused:
            prove_size_bound(A)
        forged = prove_size_bound(PointSet.empty(field, 3))
        forged.update(n=n, input=A.to_json())
        with pytest.raises(ValueError) as info:
            verify_transcript(forged)
        assert str(info.value) == str(refused.value)
        f = tmp_path / "forged.json"
        f.write_text(json.dumps(forged))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify-transcript", "--input", str(f), "--format", "json"])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {refused.value}\n")

    def test_rejects_progressions_with_witness(self):
        line = PointSet.from_points(F3, 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        with pytest.raises(ProgressionFound) as exc_info:
            prove_size_bound(line)
        a, b, c = [tuple(x) for x in exc_info.value.evidence]
        assert all((x + y) % 3 == (2 * z) % 3 for x, y, z in zip(a, b, c))

    def test_empty_set(self):
        transcript = prove_size_bound(PointSet.empty(F3, 3))
        assert transcript["branch"] == "zero_intersection"
        assert all(c["holds"] for c in transcript["checks"])
        assert transcript["input_size"] == 0

    def test_two_point_smoke(self):
        small = PointSet.from_points(F3, 3, [(0, 0, 0), (1, 0, 0)])
        transcript = prove_size_bound(small)
        assert all(c["holds"] for c in transcript["checks"])
        assert float(transcript["conclusion"]["asymptotic"]["bound"]) > 2

    def test_nine_cap_end_to_end(self, cap9_search):
        transcript = prove_size_bound(cap9_search.witness)
        assert transcript["branch"] == "main"
        assert all(c["holds"] for c in transcript["checks"])
        assert transcript["dims"]["vanishing_off_doubles"] == "9"
        assert transcript["dims"]["low_degree"] == "23"
        assert int(transcript["dims"]["intersection"]) >= 5
        assert transcript["matrix_rank"] == len(transcript["selected_points"])
        assert transcript["matrix_rank"] <= 20

    def test_unit_diagonal(self, cap9_search):
        transcript = prove_size_bound(cap9_search.witness)
        a_prime = PointSet.from_indices(F3, 3, transcript["selected_points"])
        diag = diagonal_certificate(value_table(transcript), a_prime)
        arr = gram_matrix(interpolate(value_table(transcript), F3, 3), a_prime, a_prime)
        assert (diag == 1).all()
        assert (arr == np.diag(diag)).all()

    def test_hook_reaches_diagonal_certificate(self, cap9_search):
        cap = cap9_search.witness
        extra = next(i for i in range(27) if i not in cap)
        bad = PointSet(F3, 3, cap.mask | (1 << extra))
        assert not is_progression_free(bad)[0]
        with pytest.raises(HypothesisViolation, match="not diagonal"):
            prove_size_bound(bad, _skip_progression_check=True)

    def test_gram_sweep_skipped_when_its_outcome_is_known(self, cap9_search, monkeypatch):
        """On a progression-free set whose witness is 1 on C', neither prove nor
        verify sweeps the Gram matrix: its rank is recorded as |A'|."""

        def refuse(*_):
            raise AssertionError("Gram sweep whose outcome the rows already give")

        monkeypatch.setattr(proof, "diagonal_certificate", refuse)
        transcript = prove_size_bound(cap9_search.witness)
        assert transcript["matrix_rank"] == len(transcript["selected_points"]) > 0
        assert verify_transcript(transcript)[0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_recorded_gram_rank_is_the_sweeps(self, cap9_search, data):
        """On any A in F_3^3 (a subset of a cap, or any set), any C' and any
        values of f on the doubles, the Gram rank `_derive` records, swept or
        not, is the one `diagonal_certificate`'s sweep gives."""
        pool = data.draw(st.sampled_from([cap9_search.witness.indices(), list(range(27))]))
        A = PointSet.from_indices(F3, 3, data.draw(st.sets(st.sampled_from(pool), min_size=1)))
        sums, doubles = pair_sums(A)
        picked = data.draw(st.sets(st.sampled_from(doubles.indices() + [data.draw(st.integers(0, 26))]), min_size=1))
        lam = data.draw(st.lists(st.integers(0, 2), min_size=A.size, max_size=A.size))
        if data.draw(st.booleans()):  # f is 1 on C'
            lam = [1 if i in picked else v for i, v in zip(doubles.indices(), lam)]
        selected = PointSet.from_indices(F3, 3, sorted(picked))
        t = proof._derive(A, 2, sums, doubles, selected, lam)
        try:
            diagonal_certificate(value_table(t), PointSet.from_indices(F3, 3, t["selected_points"]))
            swept = len(t["selected_points"])
        except HypothesisViolation:
            swept = -1
        assert t["matrix_rank"] == swept

    def test_verdict_read_off_pair_sums(self, cap9_search, monkeypatch):
        # the midpoint sweep runs only to name the witness of a failing input
        def refuse(_):
            raise AssertionError("midpoint sweep on the certificate path")

        cap = cap9_search.witness
        with monkeypatch.context() as mp:
            mp.setattr(proof, "is_progression_free", refuse)
            transcript = prove_size_bound(cap)
            assert all(c["holds"] for c in transcript["checks"])
            assert verify_transcript(json.loads(json.dumps(transcript)))[0]
        extra = next(i for i in range(27) if i not in cap)
        bad = PointSet(F3, 3, cap.mask | (1 << extra))
        with pytest.raises(ProgressionFound) as info:
            prove_size_bound(bad)
        in_index_order = sorted(cap.points() + [oracles.point_coords(extra, 3, 3)], key=lambda c: c[::-1])
        assert info.value.evidence == [list(c) for c in oracles.first_progression(in_index_order, 3)]

    @pytest.mark.parametrize("digits", [1, 30, 100])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 251])
    def test_asymptotic_c_is_exponent_c(self, p, digits):
        """The asymptotic conclusion's c is `exponent_c`, at `PRECISION` digits
        whatever precision (`digits`) the caller's own context holds."""
        with localcontext(Context(prec=digits)):
            _, conclusion = _asymptotic(PrimeField(p), 3, 1)
        assert conclusion["c"] == str(exponent_c(PrimeField(p)))
        assert len(Decimal(conclusion["c"]).as_tuple().digits) == PRECISION


class TestLargeAmbient:
    def test_product_cap_takes_main_branch(self, cap9_search):
        # the product of two 9-caps is progression-free in F_3^6: a
        # componentwise progression forces one in a factor
        cap = cap9_search.witness
        product = PointSet.from_points(
            F3, 6, [a + b for a in cap.points() for b in cap.points()]
        )
        assert product.size == 81
        assert is_progression_free(product)[0]
        transcript = prove_size_bound(product)
        assert transcript["branch"] == "main"
        assert all(c["holds"] for c in transcript["checks"])
        assert transcript["dims"]["low_degree"] == "651"
        assert int(transcript["dims"]["intersection"]) >= 81 + 651 - 729
        ok, _ = verify_transcript(transcript)
        assert ok

    def test_greedy_witness_zero_branch(self):
        from capbound.search import greedy_progression_free

        witness = greedy_progression_free(PrimeField(5), 3, order_seed=1)
        transcript = prove_size_bound(witness)
        assert transcript["branch"] == "zero_intersection"
        assert all(c["holds"] for c in transcript["checks"])
        ok, _ = verify_transcript(transcript)
        assert ok

    def test_composed_product_verifies_above_the_work_bound(self, cap9_search):
        """The product of four 9-caps in F_3^12, whose |C| x h block `prove`
        refuses, certified with no elimination: C' = C'_1 x ... x C'_4 and
        lam = lam_1 (x) ... (x) lam_4, composed from the 9-cap's witness and
        written through `_derive`, verify, since the verifier builds no block."""
        t = prove_size_bound(cap9_search.witness)
        table, unit = value_table(t), np.zeros(27, dtype=np.int64)
        unit[t["selected_doubles"]] = 1
        cap = points = cap9_search.witness.points()
        values, selected = table, unit
        for _ in range(3):  # a point a + b has index idx(a) + 27^k idx(b)
            points = [a + b for b in cap for a in points]
            values = np.multiply.outer(table, values).ravel() % 3
            selected = np.multiply.outer(unit, selected).ravel()
        product = PointSet.from_points(F3, 12, points)
        sums, doubles = pair_sums(product)
        c_prime = PointSet.from_indices(F3, 12, np.flatnonzero(selected))
        lam = values[doubles.indices()].tolist()
        composed = proof._derive(product, 8, sums, doubles, c_prime, lam)
        assert (composed["input_size"], composed["dims"]["intersection"]) == (6561, "625")
        assert all(c["holds"] for c in composed["checks"])
        assert verify_transcript(json.loads(json.dumps(composed)))[0]

    def test_ceiling_rejected(self, cap9_search):
        # the product of four 9-caps in F_3^12: a 6561 x 29406 block, about 1.9e8 entries
        cap = cap9_search.witness.points()
        pairs = [a + b for a in cap for b in cap]
        product = PointSet.from_points(F3, 12, [a + b for a in pairs for b in pairs])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="6561 times h = 29406 entries, above the work bound 4194304"):
            prove_size_bound(product)
        assert time.perf_counter() - start < 1.0


class TestTranscriptSerialization:
    def test_round_trip_and_verify(self, cap9_search):
        transcript = prove_size_bound(cap9_search.witness)
        payload = json.loads(json.dumps(transcript))
        ok, checks = verify_transcript(payload)
        assert ok
        assert all(c["holds"] for c in checks)

    def test_verify_zero_branch(self):
        transcript = prove_size_bound(PointSet.empty(F3, 3))
        ok, _ = verify_transcript(transcript)
        assert ok

    def test_tampering_is_detected(self, cap9_search):
        transcript = prove_size_bound(cap9_search.witness)
        payload = transcript

        tampered = json.loads(json.dumps(payload))
        tampered["dims"]["low_degree"] = "24"
        ok, _ = verify_transcript(tampered)
        assert not ok

        tampered = json.loads(json.dumps(payload))
        tampered["selected_points"] = tampered["selected_points"][:-1]
        ok, _ = verify_transcript(tampered)
        assert not ok

        tampered = json.loads(json.dumps(payload))
        tampered["witness_values"] = [1] + [0] * 8
        ok, _ = verify_transcript(tampered)
        assert not ok

    @settings(max_examples=40, deadline=None)
    @given(double=st.integers(0, 8), scale=st.integers(0, 2))
    def test_witness_rows_match_entrywise_tests(self, cap9_search, double, scale):
        """The witness rows equal the per-entry tests over the value table of the
        interpolated witness when one recorded value moves by `scale`. That
        witness vanishes off the doubles, and so on the pair sums, which the
        cap keeps apart from the doubles: neither fact has a row of its own."""
        payload = prove_size_bound(cap9_search.witness)
        payload["witness_values"][double] = (payload["witness_values"][double] + scale) % 3
        _, rows = verify_transcript(payload)
        doubles_set = PointSet.from_indices(F3, 3, payload["doubles"])
        f = interpolate(extend_by_zero(payload["witness_values"], doubles_set), F3, 3)
        table, doubles = evaluate_all(f), set(payload["doubles"])
        assert all(v == 0 for i, v in enumerate(table) if i not in doubles)
        assert all(table[i] == 0 for i in pair_sums(cap9_search.witness)[0])
        unit = all(table[i] == 1 for i in payload["selected_doubles"])
        lhs = {c["name"]: c["lhs"] for c in rows}
        assert (lhs["witness_unit_on_selected"], lhs["witness_degree"]) == (str(int(unit)), str(f.degree or 0))

    @pytest.mark.parametrize("kind", ["cap9", "product_cap", "zero_branch"])
    def test_verifier_rows_start_with_recorded_rows(self, cap9_search, kind):
        cap = cap9_search.witness
        inputs = {
            "cap9": cap,
            "product_cap": PointSet.from_points(
                F3, 6, [a + b for a in cap.points() for b in cap.points()]
            ),
            "zero_branch": greedy_progression_free(PrimeField(5), 3, order_seed=1),
        }
        transcript = prove_size_bound(inputs[kind])
        assert (transcript["branch"] == "zero_intersection") == (kind == "zero_branch")
        ok, rows = verify_transcript(json.loads(json.dumps(transcript)))
        assert ok
        assert rows[: len(transcript["checks"])] == transcript["checks"]
        records = [c["name"] for c in rows[len(transcript["checks"]) :]]
        assert records == ["recorded_claims"]

    @pytest.mark.parametrize("branch", ["main", "zero_intersection"])
    def test_record_keys_in_writing_order(self, cap9_search, branch):
        """On the 9-cap (main branch) and greedy seed 0 in F_5^3 (zero branch),
        the transcript has these keys, in this order, and no others, and a check
        row has its note only when it has one. No parser inverts it:
        `verify_transcript` reads three fields and compares the rest as JSON."""
        A = cap9_search.witness if branch == "main" else greedy_progression_free(PrimeField(5), 3, order_seed=0)
        transcript = prove_size_bound(A)
        assert transcript["branch"] == branch
        assert list(transcript) == [
            "format", "p", "n", "branch", "input", "input_size", "doubles", "pair_sum_count", "dims", "degree_cap",
            "split_degree", "selected_doubles", "selected_points", "witness_values", "matrix_rank", "checks",
            "conclusion", "precision",
        ]
        for row in transcript["checks"]:
            assert list(row) == ["name", "relation", "lhs", "rhs", "holds", "note"][: 5 + ("note" in row)]
            assert "note" not in row or row["note"]

    @pytest.mark.parametrize("kind", ["cap9", "zero_branch", "product_of_three_caps"])
    def test_record_is_plain_json(self, cap9_search, kind):
        """What `prove_size_bound` returns is JSON as it stands: the JSON round
        trip gives it back with the same keys, in order, and the same JSON
        type at every position (`proof._same` at each leaf), so no numpy
        scalar, tuple or Decimal is left in it. Main branch, zero branch, and
        the product of three 9-caps in F_3^9 (dim V = 125)."""
        cap = cap9_search.witness.points()
        A = {
            "cap9": cap9_search.witness,
            "zero_branch": greedy_progression_free(PrimeField(5), 3, order_seed=1),
            "product_of_three_caps": PointSet.from_points(F3, 9, [a + b + c for a in cap for b in cap for c in cap]),
        }[kind]
        transcript = prove_size_bound(A)
        assert transcript["branch"] == ("zero_intersection" if kind == "zero_branch" else "main")

        def same_everywhere(a, b) -> bool:
            if type(a) is dict and type(b) is dict:
                return list(a) == list(b) and all(same_everywhere(a[k], b[k]) for k in a)
            if type(a) is list and type(b) is list:
                return len(a) == len(b) and all(map(same_everywhere, a, b))
            return proof._same(a, b)

        assert same_everywhere(json.loads(json.dumps(transcript)), transcript)

    def test_serialized_fields_stable(self, cap9_search):
        transcript = prove_size_bound(cap9_search.witness)
        payload = transcript
        dumped = json.dumps(payload, sort_keys=True)
        assert json.dumps(json.loads(dumped), sort_keys=True) == dumped
        assert all(isinstance(v, str) for v in payload["dims"].values())
