import math
import random
import time
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capbound import monomials
from capbound.gf import PrimeField
from capbound.monomials import dim_L
from capbound.reference import graded_lex_key
from dense import enumerate_monomials, verify_duality
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
    prefix-sum table `_cumulative_counts`, built afresh up to entry k."""
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
        """Entries read descending, at random, then in order equal the
        convolution; the table built for a read of entry k is exactly
        entries 0..k, the prefix of the full table."""
        ref = layer_counts_convolution(n, m)
        cum = list(accumulate(ref))
        top = m * n
        field = PrimeField(m + 1) if m + 1 in (3, 5, 7, 11, 13) else None
        for order in (range(top, -1, -1), rnd.sample(range(top + 1), top + 1), range(top + 1)):
            for k in order:
                assert extended_binomial(n, k, m) == ref[k]
                if field:
                    assert dim_L(n, k, field) == cum[k]
                assert monomials._cumulative_counts(n, m, k) == cum[: k + 1]
            if field and n:
                assert verify_duality(n, field)


_SMALL_N = {3: 12, 5: 12, 7: 12, 11: 10, 13: 10, 101: 5, 65521: 2}


@st.composite
def _prime_and_small_n(draw):
    p = draw(st.sampled_from(sorted(_SMALL_N)))
    return p, draw(st.integers(0, _SMALL_N[p]))


class TestInclusionExclusion:
    """`dim_L`, a sum of d // p + 1 binomial terms, against the prefix sums
    of the layer-count table it replaced and of the window convolution."""

    @pytest.mark.parametrize("p, n", [(3, 1320), (5, 1155), (7, 1065), (11, 1020), (65521, 6), (65521, 12)])
    def test_entropy_cut_matches_table(self, p, n):
        """The `dims` workload's late-run sizes, and p > n, where each ratio
        of binomials is written over n factors, not p: each read takes well
        under 0.1 s."""
        d = (p - 1) * n // 3
        start = time.perf_counter()
        dim = dim_L(n, d, PrimeField(p))
        assert time.perf_counter() - start < 0.1
        assert dim == monomials._cumulative_counts(n, p - 1, d)[d]

    @settings(max_examples=60, deadline=None)
    @given(_prime_and_small_n())
    @example((3, 12))
    @example((13, 10))
    @example((101, 5))
    @example((65521, 2))
    def test_matches_table_and_convolution(self, p_n):
        p, n = p_n
        field, top = PrimeField(p), (p - 1) * n
        table = monomials._cumulative_counts(n, p - 1, top)
        if p <= 101 or n <= 1:  # the convolution takes O(p^2 n^2) steps
            assert table == list(accumulate(layer_counts_convolution(n, p - 1)))
        for d in range(top + 1):
            assert dim_L(n, d, field) == table[d]
        for d in range(top + 1) if top <= 1500 else {0, p - 1, min(p, top), top - 1, top}:
            assert monomials._cumulative_counts(n, p - 1, d) == table[: d + 1]

    def test_inexact_step_raises(self, monkeypatch):
        """A step whose division leaves a remainder raises: it is never floored."""
        monkeypatch.setattr(monomials, "perm", lambda a, b: math.perm(a, b) + 1)
        with pytest.raises(ArithmeticError, match="inexact"):
            dim_L(6, 6, F3)


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
