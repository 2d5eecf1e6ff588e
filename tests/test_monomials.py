import random
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capbound import monomials
from capbound.gf import PrimeField
from capbound.monomials import dim_L
from capbound.reference import enumerate_monomials, graded_lex_key, verify_duality
from oracles import count_monomials_direct, layer_counts_convolution

F3 = PrimeField(3)
F5 = PrimeField(5)


class TestEnumeration:
    def test_univariate(self):
        assert enumerate_monomials(1, F3, 2) == [(0,), (1,), (2,)]

    def test_graded_lex_order(self):
        assert enumerate_monomials(2, F3, 1) == [(0, 0), (0, 1), (1, 0)]
        monos = enumerate_monomials(2, F3, 4)
        assert monos == sorted(monos, key=graded_lex_key)

    def test_count_example(self):
        assert len(enumerate_monomials(3, F3, 2)) == 10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_monomials(2, F3, 5)
        with pytest.raises(ValueError):
            enumerate_monomials(2, F3, -1)

    def test_exponent_cap(self):
        for alpha in enumerate_monomials(2, F3, 4):
            assert all(0 <= e <= 2 for e in alpha)


def extended_binomial(n: int, k: int, m: int) -> int:
    """The extended binomial coefficient c_k, the number of vectors in
    {0..m}^n with sum k (0 <= k <= mn), as a difference of the library's
    prefix-sum table; a read builds that table up to entry k."""
    cum = monomials._cumulative_counts(n, m, k)
    return cum[k] - cum[k - 1] if k else cum[0]


class TestExtendedBinomial:
    def test_examples(self):
        assert extended_binomial(2, 2, 2) == 3
        assert extended_binomial(3, 3, 2) == 7
        for n, m in [(1, 1), (4, 2), (3, 4)]:
            assert extended_binomial(n, 0, m) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 12))
    @example(300, 2)
    def test_row_sum_and_symmetry(self, n, m):
        row = [extended_binomial(n, k, m) for k in range(m * n + 1)]
        assert sum(row) == (m + 1) ** n
        assert row == row[::-1]


class TestLayerRecurrence:
    """The recurrence-built prefix-sum table against the window convolution
    it replaced (tests/oracles.py)."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 12))
    @example(0, 1)
    @example(0, 2)
    @example(1, 1)
    @example(60, 12)
    @example(300, 2)
    def test_matches_convolution(self, n, m):
        ref = layer_counts_convolution(n, m)
        top = m * n
        for k in range(top + 1):
            assert extended_binomial(n, k, m) == ref[k]
        if m + 1 in (3, 5, 7, 11, 13):
            field = PrimeField(m + 1)
            for d in range(top + 1):
                assert dim_L(n, d, field) == sum(ref[: d + 1])
            for d in (-1, top + 1):
                with pytest.raises(ValueError):
                    dim_L(n, d, field)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 12), st.randoms(use_true_random=False))
    @example(0, 2, random.Random(0))
    @example(40, 12, random.Random(1))
    def test_any_read_order(self, n, m, rnd):
        """Entries read descending, at random, then as the full table, each
        order from an empty cache, equal the convolution; a read builds the
        table only up to the entry it asks for."""
        ref = layer_counts_convolution(n, m)
        cum = list(accumulate(ref))
        top = m * n
        field = PrimeField(m + 1) if m + 1 in (3, 5, 7, 11, 13) else None
        for order in (range(top, -1, -1), rnd.sample(range(top + 1), top + 1), range(top + 1)):
            monomials._prefix_table.cache_clear()
            built = 0
            for k in order:
                assert extended_binomial(n, k, m) == ref[k]
                if field:
                    assert dim_L(n, k, field) == cum[k]
                built = max(built, k + 1)
                assert len(monomials._prefix_table(n, m)[0]) == built
            if field and n:
                assert verify_duality(n, field)

    def test_cache_stays_bounded(self):
        for n in range(200, 300):
            dim_L(n, n, F3)
        info = monomials._prefix_table.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


class TestDimensions:
    def test_examples(self):
        assert dim_L(3, 2, F3) == 10
        assert dim_L(3, 6, F3) == 27
        assert dim_L(3, 4, F3) == 23
        assert dim_L(3, 3, F3) == 17

    def test_matches_enumeration(self):
        for p in (3, 5):
            field = PrimeField(p)
            for n in range(1, 5):
                for d in range((p - 1) * n + 1):
                    assert dim_L(n, d, field) == len(enumerate_monomials(n, field, d))
                    assert dim_L(n, d, field) == count_monomials_direct(n, p, d)

    def test_monotone_in_degree(self):
        dims = [dim_L(4, d, F5) for d in range(4 * 4 + 1)]
        assert dims == sorted(dims)
        assert dims[-1] == 5**4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dim_L(3, 7, F3)


class TestDuality:
    def test_univariate(self):
        assert dim_L(1, 0, F3) + dim_L(1, 1, F3) == 3
        assert verify_duality(1, F3)

    def test_example_n3(self):
        assert dim_L(3, 2, F3) + dim_L(3, 3, F3) == 27
        assert verify_duality(3, F3)

    def test_p5(self):
        assert verify_duality(4, F5)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            verify_duality(0, F3)
