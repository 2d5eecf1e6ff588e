import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from capbound.errors import HypothesisViolation
from capbound.gf import PrimeField
from capbound.polyspace import _coordinate_products, _indicator_rows, _vandermonde
from capbound.reference import (
    ReducedPoly,
    evaluate,
    evaluate_all,
    gram_matrix,
    indicator_poly,
    interpolate,
    monomial_index,
    poly_from_vector,
    poly_to_vector,
    rank,
    shift_coefficient_matrix,
    support_split_rank_bound,
    zero_set,
)
from capbound.sets import PointSet

F3 = PrimeField(3)
F5 = PrimeField(5)


def random_poly(rng, field, n, max_terms=6):
    cap = field.p - 1
    coeffs = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        alpha = tuple(int(e) for e in rng.integers(0, cap + 1, size=n))
        coeffs[alpha] = int(rng.integers(0, field.p))
    return ReducedPoly(field, n, coeffs)


class TestReducedPoly:
    def test_normalization(self):
        f = ReducedPoly(F3, 2, {(0, 0): 3, (1, 1): 4})
        assert f.coefficient((0, 0)) == 0
        assert f.coefficient((1, 1)) == 1
        assert len(f.terms()) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReducedPoly(F3, 2, {(3, 0): 1})
        with pytest.raises(ValueError):
            ReducedPoly(F3, 2, {(0, 0, 0): 1})
        with pytest.raises(ValueError, match="exponent outside"):
            ReducedPoly(F3, 2, {(0, -1): 1})

    def test_degree_sentinel(self):
        assert ReducedPoly.zero(F3, 2).degree is None
        assert ReducedPoly.constant(F3, 2, 1).degree == 0
        assert ReducedPoly(F3, 2, {(2, 1): 1}).degree == 3

    def test_add_scale(self):
        f = ReducedPoly(F3, 1, {(1,): 1})
        g = ReducedPoly(F3, 1, {(1,): 2, (0,): 1})
        assert (f + g).coefficient((1,)) == 0
        assert f.scale(2).coefficient((1,)) == 2
        assert (f - f).is_zero

    def test_text_round_trip(self):
        f = ReducedPoly(F3, 2, {(0, 0): 1, (2, 1): 2})
        text = f.to_text()
        assert text == "1 + 2*x1^2*x2^1"
        assert ReducedPoly.zero(F3, 2).to_text() == "0"

    def test_vector_round_trip(self):
        f = ReducedPoly(F3, 2, {(1, 2): 2, (0, 0): 1})
        assert poly_from_vector(poly_to_vector(f), F3, 2) == f


class TestEvaluation:
    def test_constant(self):
        one = ReducedPoly.constant(F3, 2, 1)
        for idx in range(9):
            assert evaluate(one, oracles.point_coords(idx, 3, 2)) == 1

    def test_univariate_example(self):
        f = ReducedPoly(F3, 1, {(0,): 1, (2,): 2})  # 1 - x^2
        assert [evaluate(f, (x,)) for x in range(3)] == [1, 0, 0]
        assert evaluate_all(f) == [1, 0, 0]

    def test_product_example(self):
        f = ReducedPoly(F3, 2, {(1, 1): 1})
        assert evaluate(f, (2, 2)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(ReducedPoly.constant(F3, 2, 1), (0,))

    def test_evaluate_all_matches_pointwise(self):
        rng = np.random.default_rng(5)
        for field, n in [(F3, 1), (F3, 2), (F3, 3), (F5, 2)]:
            f = random_poly(rng, field, n)
            table = evaluate_all(f)
            for idx in range(field.p**n):
                assert table[idx] == evaluate(f, oracles.point_coords(idx, field.p, n))

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = random_poly(rng, F3, 2)
            g = random_poly(rng, F3, 2)
            fg = [(a + b) % 3 for a, b in zip(evaluate_all(f), evaluate_all(g))]
            assert evaluate_all(f + g) == fg


class TestInterpolation:
    def test_all_ones(self):
        assert interpolate([1] * 9, F3, 2) == ReducedPoly.constant(F3, 2, 1)

    def test_point_indicator(self):
        v = [1, 0, 0]
        assert interpolate(v, F3, 1) == ReducedPoly(F3, 1, {(0,): 1, (2,): 2})

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            interpolate([0] * 8, F3, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2)]), st.data())
    def test_round_trip_random(self, pn, data):
        p, n = pn
        field = PrimeField(p)
        values = data.draw(
            st.lists(st.integers(0, p - 1), min_size=p**n, max_size=p**n)
        )
        f = interpolate(values, field, n)
        assert evaluate_all(f) == values
        assert interpolate(evaluate_all(f), field, n) == f

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(3, 0), (5, 0), (3, 1), (3, 2), (5, 2), (7, 2), (3, 3)]), st.data())
    @example(pn=(3, 2), data=None)
    @example(pn=(5, 0), data=None)
    def test_matches_term_loop(self, pn, data):
        """The flat read equals the per-term read, zero table (data=None) included."""
        p, n = pn
        field = PrimeField(p)
        size = p**n
        values = [0] * size if data is None else data.draw(
            st.lists(st.integers(0, p - 1), min_size=size, max_size=size)
        )
        f, g = interpolate(values, field, n), oracles.interpolate_term_loop(values, field, n)
        assert dict(f.terms()) == g and f.degree == max(map(sum, g), default=None)
        assert {type(x) for alpha, c in f._coeffs.items() for x in (*alpha, c)} <= {int}


class TestIndicator:
    def test_univariate(self):
        assert indicator_poly((0,), F3) == ReducedPoly(F3, 1, {(0,): 1, (2,): 2})
        assert indicator_poly((), F3) == ReducedPoly.constant(F3, 0, 1)

    def test_kronecker_property(self):
        for field, n in [(F3, 2), (F5, 1)]:
            for idx in range(field.p**n):
                a = oracles.point_coords(idx, field.p, n)
                table = evaluate_all(indicator_poly(a, field))
                expected = [1 if j == idx else 0 for j in range(field.p**n)]
                assert table == expected

    @pytest.mark.parametrize("p", [3, 67, 251])
    def test_tables_match_definitions(self, p):
        """The Vandermonde table is v^e mod p, and the indicator table read off
        it is the binomial expansion of 1 - (x - s)^(p-1), reduced mod p. From
        p = 67 on, the unreduced binomial terms do not fit in int64."""
        assert _vandermonde(p).tolist() == [[pow(v, e, p) for e in range(p)] for v in range(p)]
        expected = [[oracles.indicator_coefficient(s, e, p) for e in range(p)] for s in range(p)]
        assert _indicator_rows(p).tolist() == expected

    def test_degree_full(self):
        assert indicator_poly((1, 2), F3).degree == 4
        assert indicator_poly((0, 0, 0), F3).degree == 6

    def test_partition_of_unity(self):
        total = ReducedPoly.zero(F3, 2)
        for idx in range(9):
            total = total + indicator_poly(oracles.point_coords(idx, 3, 2), F3)
        assert total == ReducedPoly.constant(F3, 2, 1)

    def test_family_is_independent(self):
        # evaluation matrix of the indicator family is the identity
        rows = [
            evaluate_all(indicator_poly(oracles.point_coords(i, 3, 2), F3)) for i in range(9)
        ]
        assert np.array_equal(np.array(rows), np.eye(9, dtype=np.int64))


class TestCoordinateProducts:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([3, 5, 7, 251, 65521]), st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
    @example(65521, 9, True, 0)
    @example(3, 9, True, 0)
    def test_matches_per_pass_reduction(self, p, n, near_top, seed):
        """Grouped passes equal one reduction per pass, also with every table
        entry near p - 1, where a missed reduction overflows int64 at p = 65521."""
        rng = np.random.default_rng(seed)
        size = min(p, 5)
        low = max(0, p - 3) if near_top else 0
        table = rng.integers(low, p, size=(size, size))
        coords = rng.integers(0, size, size=(7, n))
        exps = rng.integers(0, size, size=(11, n))
        got = _coordinate_products(coords, list(map(tuple, exps.tolist())), table, PrimeField(p))
        assert np.array_equal(got, oracles.coordinate_products_per_pass(coords, exps, table, p))


class TestZeroSet:
    def test_zero_polynomial(self):
        assert zero_set(ReducedPoly.zero(F3, 2)) == PointSet.full(F3, 2)

    def test_example(self):
        f = ReducedPoly(F3, 1, {(0,): 1, (2,): 2})
        assert zero_set(f).indices() == [1, 2]

    def test_univariate_root_count(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            f = random_poly(rng, F5, 1, max_terms=4)
            if f.is_zero:
                continue
            assert len(zero_set(f)) <= F5.p - 1


class TestShiftMatrix:
    def test_constant(self):
        C = shift_coefficient_matrix(ReducedPoly.constant(F3, 1, 1))
        assert C[0, 0] == 1 and C.sum() == 1
        assert rank(C, 3) == 1

    def test_square_example(self):
        # (x+y)^2 = x^2 + 2xy + y^2 over GF(3)
        C = shift_coefficient_matrix(ReducedPoly(F3, 1, {(2,): 1}))
        assert C.tolist() == [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
        assert rank(C, 3) == 3

    def test_degree_bookkeeping(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_poly(rng, F3, 2)
            if f.is_zero:
                continue
            monos, _ = monomial_index(3, 2)
            arr = shift_coefficient_matrix(f)
            degs = {sum(alpha) for alpha, _ in f.terms()}
            for i, j in zip(*np.nonzero(arr)):
                assert sum(monos[i]) + sum(monos[j]) in degs

    def test_size_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            shift_coefficient_matrix(ReducedPoly.zero(F3, 7))


class TestSupportSplit:
    def test_constant(self):
        C = shift_coefficient_matrix(ReducedPoly.constant(F3, 1, 1))
        assert support_split_rank_bound(C, 0, 1, F3) == 2

    def test_square(self):
        C = shift_coefficient_matrix(ReducedPoly(F3, 1, {(2,): 1}))
        assert support_split_rank_bound(C, 1, 1, F3) == 4
        assert rank(C, 3) <= 4

    def test_violation(self):
        # degree 2 polynomial with d = 0 violates the split hypothesis
        C = shift_coefficient_matrix(ReducedPoly(F3, 1, {(2,): 1}))
        with pytest.raises(HypothesisViolation, match="degree hypothesis violated"):
            support_split_rank_bound(C, 0, 1, F3)


class TestGramMatrix:
    def test_constant(self):
        M = gram_matrix(ReducedPoly.constant(F3, 1, 1), PointSet.full(F3, 1), PointSet.full(F3, 1))
        assert M.tolist() == [[1, 1, 1]] * 3
        assert rank(M, 3) == 1

    def test_square_table(self):
        M = gram_matrix(ReducedPoly(F3, 1, {(2,): 1}), PointSet.full(F3, 1), PointSet.full(F3, 1))
        assert M.tolist() == [[0, 1, 1], [1, 1, 0], [1, 0, 1]]

    def test_rank_bounded_by_shift_rank(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            f = random_poly(rng, F3, n)
            total = 3**n
            a = PointSet.from_indices(F3, n, rng.choice(total, size=rng.integers(1, total + 1), replace=False))
            b = PointSet.from_indices(F3, n, rng.choice(total, size=rng.integers(1, total + 1), replace=False))
            M = gram_matrix(f, a, b)
            C = shift_coefficient_matrix(f)
            assert rank(M, 3) <= rank(C, 3)

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            gram_matrix(ReducedPoly.constant(F3, 1, 1), PointSet.full(F3, 2), PointSet.full(F3, 2))
