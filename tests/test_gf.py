from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capbound.gf import PrimeField, _row_reduce, unit_kernel_vector
from capbound.polyspace import _coordinate_products, _vandermonde
from capbound.reference import enumerate_monomials, rank, row_space_intersection
from capbound.sets import PointSet, _coords_of, _index_of, pair_sums
from oracles import brute_force_rank, rows_independent

F3 = PrimeField(3)
F5 = PrimeField(5)
# 61 puts shapes up to 10 x 10 on both sides of the int16/int32 switch of
# `_row_reduce`'s working dtype, and 4093 puts them in int32
ELIMINATION_PRIMES = [3, 5, 7, 11, 61, 4093, 65521]


@st.composite
def elimination_inputs(draw):
    """(p, matrix): zero, random or a product of two random factors of inner
    size k, which is rank-deficient when k < min(rows, cols); tall and wide
    shapes, including empty ones, come from independent row and column counts."""
    p = draw(st.sampled_from(ELIMINATION_PRIMES))
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["zero", "random", "product"]))

    def block(r, c):
        entries = st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c)
        return np.array(draw(entries), dtype=np.int64).reshape(r, c)

    if kind == "zero":
        return p, np.zeros((rows, cols), dtype=np.int64)
    if kind == "random":
        return p, block(rows, cols)
    k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
    return p, block(rows, k) @ block(k, cols) % p


class TestPrimeField:
    def test_rejects_non_primes_and_two(self):
        for bad in (0, 1, 2, 4, 9, 15, -3, 2**16 + 1):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_validate_takes_numpy_ints_not_bools(self):
        # `field` imports no numpy: an element is any numbers.Integral but bool
        assert [F5.validate(a) for a in (3, np.int64(4), np.uint8(0))] == [3, 4, 0]
        for bad in (True, np.bool_(False), 2.0, "1", 5, -1):
            with pytest.raises(ValueError):
                F5.validate(bad)

    def test_large_modulus_rejected_before_primality(self):
        # trial division up to the square root of a 61-bit prime would not finish
        with pytest.raises(ValueError, match="too large"):
            PrimeField(2**61 - 1)


class TestPoints:
    """The base-p point encoding, which the index kernel `sets._index_of` /
    `_coords_of` computes and `PointSet` validates."""

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 1)])
    def test_index_round_trip_exhaustive(self, p, n):
        idx = np.arange(p**n)
        coords = _coords_of(idx, p, n)
        assert coords.tolist() == [list(oracles.point_coords(i, p, n)) for i in range(p**n)]
        assert _index_of(coords, p).tolist() == idx.tolist()

    def test_index_formula(self):
        assert _index_of(np.array([[2, 1, 0], [0, 0, 2]]), 3).tolist() == [2 + 1 * 3, 2 * 9]

    def test_range_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            PointSet.from_points(F3, 2, [(3, 0)])
        with pytest.raises(ValueError, match="out of range"):
            PointSet.from_indices(F3, 2, [9])

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_doubling_is_bijection(self, p, n):
        images = set(_index_of(2 * _coords_of(np.arange(p**n), p, n) % p, p).tolist())
        assert len(images) == p**n


class TestRank:
    def test_rank_examples(self):
        assert rank(np.eye(3, dtype=np.int64), 3) == 3
        assert rank(np.zeros((2, 3), dtype=np.int64), 3) == 0
        assert rank([[1, 2], [2, 4]], 3) == 1

    def test_rank_against_brute_force(self):
        rng = np.random.default_rng(20240311)
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            entries = rng.integers(0, 3, size=(rows, cols))
            assert rank(entries, 3) == brute_force_rank(entries.tolist(), 3)


class TestRowReduce:
    """The lazy Gauss-Jordan pass against the per-pivot elimination it replaced."""

    @staticmethod
    def assert_matches_oracle(a: np.ndarray, p: int) -> list[int]:
        got, want = a.copy(), a.copy()
        pivots, reduced = _row_reduce(got.T, p)
        assert pivots == oracles.row_reduce_per_pivot(want, p)
        assert np.array_equal(reduced.T, want) and np.array_equal(got, a)
        return pivots

    @settings(max_examples=300, deadline=None)
    @given(elimination_inputs())
    def test_matches_per_pivot_elimination(self, case):
        p, a = case
        self.assert_matches_oracle(a, p)

    def test_pivot_columns_examples(self):
        assert self.assert_matches_oracle(np.eye(4, dtype=np.int64), 3) == [0, 1, 2, 3]
        assert self.assert_matches_oracle(np.zeros((3, 3), dtype=np.int64), 3) == []
        assert self.assert_matches_oracle(np.array([[1, 2, 0], [2, 4, 1]]) % 3, 3) == [0, 2]

    def test_pivot_columns_stable_under_row_permutation(self):
        """The pivots are the leftmost columns of full column rank, so any row
        order selects columns that stay independent."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            entries = rng.integers(0, 3, size=(4, 5))
            cols = self.assert_matches_oracle(entries[rng.permutation(4)], 3)
            assert len(cols) == rank(entries, 3)
            restricted = [[int(entries[i, c]) for c in cols] for i in range(4)]
            restricted_t = [list(col) for col in zip(*restricted)]
            assert rows_independent(restricted_t, 3)

    def test_entry_growth_at_largest_modulus(self):
        # dense, so every row is updated at every pivot: an entry takes up to
        # 299 unreduced subtractions of up to (p-1)^2 before the final reduction
        p = 65521
        a = np.random.default_rng(65521).integers(p - 256, p, size=(300, 300))
        assert len(self.assert_matches_oracle(a, p)) == 300
        deficient = a[:, :150] @ a[:150, :] % p
        assert len(self.assert_matches_oracle(deficient, p)) == 150

    def test_product_cap_evaluation_block(self):
        """The 78 x 81 transposed evaluation block whose left kernel is V for the product cap in F_3^6."""
        cap9 = [(x, y, (x * x + y * y) % 3) for x in range(3) for y in range(3)]
        _, doubles = pair_sums(PointSet.from_points(F3, 6, [a + b for a in cap9 for b in cap9]))
        low = enumerate_monomials(6, F3, 3)
        block = _coordinate_products(np.array(doubles.points()), low, _vandermonde(3), F3).T
        assert block.shape == (78, 81)
        assert len(self.assert_matches_oracle(block, 3)) == 81 - 25

    @pytest.mark.parametrize("p,size,limit", [(61, 9, 2**15), (13, 227, 2**15), (4093, 128, 2**31)])
    def test_dense_on_both_sides_of_each_dtype_switch(self, p, size, limit):
        """The working dtype is int16 while p + min(rows, cols)(p-1)^2 < 2^15,
        then int32 while it is below 2^31, then int64: `size` is the last
        square side below `limit`, so size and size + 1 straddle a switch."""
        assert p + size * (p - 1) ** 2 < limit <= p + (size + 1) * (p - 1) ** 2
        rng = np.random.default_rng(p)
        for n in (size, size + 1):
            self.assert_matches_oracle(rng.integers(0, p, size=(n, n)), p)

    @pytest.mark.parametrize("p,limit", [(61, 2**15), (13, 2**15), (4093, 2**31)])
    def test_worst_case_growth_past_each_switch(self, p, limit):
        """A staircase whose last row takes -(p-1)^2 at each of k pivots in its
        last two columns, for the first k that takes them below -limit: the
        dtype chosen for it must be wider than the one `limit` bounds. The
        last column keeps the RREF from being the identity, so a wrapped
        entry shows."""
        k = limit // (p - 1) ** 2 + 1
        a = np.zeros((k + 1, k + 2), dtype=np.int64)
        a[:k, :k] = np.eye(k, dtype=np.int64)
        a[:k, k:] = a[k, :k] = p - 1
        a[k, k + 1] = 1
        assert len(self.assert_matches_oracle(a, p)) == k + 1

    def test_product_of_three_caps_evaluation_block(self):
        """The 1507 x 729 transposed evaluation block of the product of three
        9-caps in F_3^9, sparse: a pivot column has a few percent of its rows
        nonzero."""
        cap9 = [(x, y, (x * x + y * y) % 3) for x in range(3) for y in range(3)]
        product = [a + b + c for a in cap9 for b in cap9 for c in cap9]
        _, doubles = pair_sums(PointSet.from_points(F3, 9, product))
        low = enumerate_monomials(9, F3, 5)
        block = _coordinate_products(np.array(doubles.points()), low, _vandermonde(3), F3).T
        assert block.shape == (1507, 729)
        assert len(self.assert_matches_oracle(block, 3)) == 729 - 125


class TestUnitKernelVector:
    @settings(max_examples=200, deadline=None)
    @given(elimination_inputs())
    def test_left_kernel_vector_one_on_free_rows(self, case):
        """v is in the left kernel of the block, is 1 on the free rows, whose
        count is the kernel's dimension, and the block is left as it was."""
        p, block = case
        before = block.copy()
        free, v = unit_kernel_vector(block, p)
        assert np.array_equal(block, before)
        assert free.shape == v.shape == (block.shape[0],)
        assert int(free.sum()) == block.shape[0] - rank(block, p)
        assert (v[free] == 1).all() and (v >= 0).all() and (v < p).all()
        assert not (v @ block % p).any()

    def test_affine_image_of_three_caps_block(self):
        """The 729 x 1507 evaluation block of an affine image of the product of
        three 9-caps in F_3^9, under x -> (x_0, x_0 + x_1, ..., x_0 + ... + x_8)
        + t, which mixes the factors' coordinates, so the block has none of
        the tensor structure that keeps the product's elimination sparse.
        dim V = 125 for both, and the pivots of the reversed transpose are
        the rows that are not free."""
        cap9 = [(x, y, (x * x + y * y) % 3) for x in range(3) for y in range(3)]
        product = [a + b + c for a in cap9 for b in cap9 for c in cap9]
        t = (1, 0, 2, 2, 1, 0, 0, 2, 1)
        image = [tuple((s + u) % 3 for s, u in zip(accumulate(x), t)) for x in product]
        _, doubles = pair_sums(PointSet.from_points(F3, 9, image))
        low = enumerate_monomials(9, F3, 5)
        block = _coordinate_products(np.array(doubles.points()), low, _vandermonde(3), F3)
        assert block.shape == (729, 1507)
        free, v = unit_kernel_vector(block, 3)
        assert int(free.sum()) == 125 and (v[free] == 1).all()
        assert not (v @ block % 3).any()
        pivots = TestRowReduce.assert_matches_oracle(block[::-1].T, 3)
        assert pivots == np.flatnonzero(~free[::-1]).tolist()


class TestRowSpaceIntersection:
    def test_coordinate_subspaces(self):
        e = lambda i: [1 if j == i else 0 for j in range(3)]
        inter = row_space_intersection([e(0), e(1)], [e(1), e(2)], F3)
        assert len(inter) == 1
        v = inter[0]
        assert v[0] == 0 and v[2] == 0 and v[1] != 0

    def test_idempotence(self):
        basis = [[1, 0, 2, 1], [0, 1, 1, 1]]
        inter = row_space_intersection(basis, basis, F3)
        assert len(inter) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            row_space_intersection([[1, 0]], [[1, 0, 0]], F3)

    @staticmethod
    def _random_subspace(rng, dim, ambient, p):
        while True:
            a = rng.integers(0, p, size=(dim, ambient))
            if len(_row_reduce(a.T, p)[0]) == dim:
                return a.tolist()

    def test_random_subspace_dimension_bound(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            b1 = self._random_subspace(rng, 5, 9, 3)
            b2 = self._random_subspace(rng, 7, 9, 3)
            inter = row_space_intersection(b1, b2, F3)
            assert len(inter) >= 5 + 7 - 9
            # dim(U & W) + dim(U + W) = dim U + dim W
            assert len(inter) + rank(b1 + b2, 3) == 12
            for v in inter:
                assert rank(b1 + [v], 3) == 5
                assert rank(b2 + [v], 3) == 7
