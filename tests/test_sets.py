import contextlib
import functools
import json
import multiprocessing
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from capbound import sets
from capbound.errors import HypothesisViolation, ProgressionFound
from capbound.gf import PrimeField
from capbound.polyspace import DENSE_MATRIX_CEILING, ReducedPoly, gram_matrix
from capbound.proof import _halves_of
from capbound.reference import check_diagonal_size_bound, evaluate
from capbound.sets import (
    PointSet,
    SearchResult,
    greedy_progression_free,
    is_progression_free,
    max_progression_free,
    pair_sums,
    parse_point_set,
)
from oracles import has_progression, max_pf_all_subsets

F3 = PrimeField(3)
F5 = PrimeField(5)
# coordinates a point file or a caller may give, valid or not
COORDINATE = st.integers(-1, 3) | st.sampled_from([True, 1.0, "1", 2**70, np.int64(2), np.bool_(True)])


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the caller if the block runs `seconds` longer."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestPointSet:
    def test_membership_and_size(self):
        ps = PointSet.from_points(F3, 2, [(0, 0), (1, 2)])
        assert len(ps) == 2
        assert 0 in ps and 7 in ps and 1 not in ps
        assert ps.points() == [(0, 0), (1, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PointSet.from_points(F3, 2, [(3, 0)])
        with pytest.raises(ValueError):
            PointSet.from_points(F3, 2, [(0, 0, 0)])
        with pytest.raises(ValueError):
            PointSet.from_indices(F3, 2, [9])
        with pytest.raises(ValueError):
            PointSet(F3, 2, 1 << 9)

    def test_set_algebra(self):
        a = PointSet.from_indices(F3, 1, [0, 1])
        b = PointSet.from_indices(F3, 1, [1, 2])
        assert (a & b).indices() == [1]
        assert (a | b).size == 3
        assert (a - b).indices() == [0]
        assert a.complement().indices() == [2]
        with pytest.raises(ValueError):
            a & PointSet.from_indices(F3, 2, [0])

    def test_json_round_trip(self):
        ps = PointSet.from_points(F5, 2, [(0, 1), (4, 4), (2, 0)])
        data = json.loads(json.dumps(ps.to_json()))
        assert PointSet.from_json(data) == ps

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"p": 3, "n": 1, "points": [[1.0]]}, "must be an int"),
            ({"p": 3, "n": 1, "points": [["1"]]}, "must be an int"),
            ({"p": "3", "n": 1, "points": []}, "must be an int"),
            ({"p": 3, "n": 1.0, "points": []}, "n must be an int"),
            ({"p": 3, "n": 1}, "points"),
            ({"p": 3, "n": 1, "points": [1]}, "points"),
        ],
    )
    def test_json_requires_ints(self, data, message):
        with pytest.raises(ValueError, match=message):
            PointSet.from_json(data)

    def test_text_round_trip(self):
        ps = PointSet.from_points(F3, 3, [(0, 0, 0), (1, 2, 0)])
        text = ps.to_text()
        assert text.splitlines()[0] == "p=3 n=3"
        assert PointSet.from_text(text) == ps

    def test_text_comments_and_errors(self):
        parsed = PointSet.from_text("# cap\np=3 n=2\n\n0 0  # origin\n1 2\n")
        assert parsed.size == 2
        with pytest.raises(ValueError, match="header"):
            PointSet.from_text("0 0\n1 2\n")

    def test_parse_auto_detect(self):
        ps = PointSet.from_points(F3, 2, [(1, 1)])
        assert parse_point_set(json.dumps(ps.to_json())) == ps
        assert parse_point_set(ps.to_text()) == ps

    def test_ambient_bounded_before_its_size_is_computed(self):
        assert PointSet(F3, 15, 0).size == 0  # 3^15 points: within 2^24
        # each refusal is immediate; computing 3^2000000 alone takes about 0.3 s
        start = time.perf_counter()
        for make in (
            lambda: PointSet(F3, 16, 0),
            lambda: PointSet.full(F5, 11),
            lambda: PointSet.from_indices(F3, 2_000_000, []),
            lambda: PointSet.from_json({"p": 3, "n": 2_000_000, "points": []}),
            lambda: PointSet.from_points(F3, 2_000_000, [(0,) * 2_000_000]),
            lambda: parse_point_set("p=3 n=2000000\n"),
            lambda: greedy_progression_free(F3, 2_000_000),
        ):
            with pytest.raises(ValueError, match="at most 16777216 points"):
                make()
        assert time.perf_counter() - start < 0.25

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate point \\(0,\\)"):
            parse_point_set("p=3 n=1\n0\n0\n1\n")
        data = {"p": 3, "n": 2, "points": [[1, 2], [0, 0], [1, 2]]}
        with pytest.raises(ValueError, match="duplicate point \\(1, 2\\)"):
            parse_point_set(json.dumps(data))

    def test_numpy_coordinates_accepted(self):
        expected = PointSet.from_points(F3, 2, [(0, 1), (2, 2)])
        assert PointSet.from_points(F3, 2, np.array([[0, 1], [2, 2]])) == expected
        assert PointSet.from_points(F3, 2, [(np.int32(0), np.int64(1)), (2, np.uint8(2))]) == expected

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(0, True)], "must be an int, got True"),
            ([(0, np.True_)], "must be an int"),
            ([(0.0, 1)], "must be an int, got 0.0"),
            ([(0, 1), (1,)], "point \\(1,\\) has wrong dimension, expected 2"),
            ([(0, 3)], "element 3 out of range \\[0, 2\\]"),
            ([(-1, 0)], "element -1 out of range"),
            ([(2**70, 0)], "out of range"),
        ],
    )
    def test_points_rejected_with_reason(self, points, message):
        with pytest.raises(ValueError, match=message):
            PointSet.from_points(F3, 2, points)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 2), min_size=2, max_size=2)
            | st.lists(COORDINATE, min_size=2, max_size=2)
            | st.lists(COORDINATE, max_size=3),
            max_size=10,
        )
    )
    @example([[3, 0]])
    @example([[0, -1]])
    @example([[np.int64(2), np.uint8(1)], [0, 0]])
    def test_from_points_matches_point_loop(self, points):
        """The flat-pass reader accepts exactly what the per-point loop accepts,
        and sets the same members."""
        try:
            expected = oracles.point_indices(points, 3, 2)
        except ValueError:
            with pytest.raises(ValueError):
                PointSet.from_points(F3, 2, points)
            return
        assert PointSet.from_points(F3, 2, points).indices() == sorted(expected)


class TestProgressionFree:
    def test_single_point(self):
        assert is_progression_free(PointSet.from_indices(F3, 2, [5]))[0]

    def test_line_in_z3(self):
        ok, witness = is_progression_free(PointSet.from_points(F3, 1, [(0,), (1,), (2,)]))
        assert not ok
        a, b, c = witness
        assert {a, b, c} <= {(0,), (1,), (2,)}
        assert (a[0] + b[0]) % 3 == (2 * c[0]) % 3
        assert len({a, b, c}) == 3

    def test_pair_in_z5(self):
        assert is_progression_free(PointSet.from_points(F5, 1, [(0,), (1,)]))[0]

    def test_agrees_with_oracle_recheck(self):
        import numpy as np

        rng = np.random.default_rng(41)
        for _ in range(50):
            size = int(rng.integers(0, 10))
            idxs = rng.choice(27, size=size, replace=False)
            ps = PointSet.from_indices(F3, 3, idxs)
            assert is_progression_free(ps)[0] == (not has_progression(set(ps.points()), 3))


class TestPairSums:
    def test_singleton(self):
        B, C = pair_sums(PointSet.from_points(F3, 1, [(0,)]))
        assert B.size == 0 and C.points() == [(0,)]

    def test_z5_example(self):
        B, C = pair_sums(PointSet.from_points(F5, 1, [(0,), (1,)]))
        assert B.points() == [(1,)]
        assert sorted(C.points()) == [(0,), (2,)]

    def test_disjoint_for_progression_free(self, cap9_search):
        cap = cap9_search.witness
        B, C = pair_sums(cap)
        assert (B & C).size == 0
        assert C.size == cap.size

    def test_doubles_always_full_size(self):
        ps = PointSet.from_indices(F5, 2, range(0, 25, 3))
        _, C = pair_sums(ps)
        assert C.size == ps.size


class TestMaxSearch:
    def test_tiny_cases_match_literal_oracle(self):
        assert max_progression_free(F3, 1).best_size == max_pf_all_subsets(3, 1) == 2
        assert max_progression_free(F3, 2).best_size == max_pf_all_subsets(3, 2) == 4
        assert max_progression_free(F5, 1).best_size == max_pf_all_subsets(5, 1) == 2
        assert (
            max_progression_free(PrimeField(7), 1).best_size
            == max_pf_all_subsets(7, 1)
            == 3
        )

    def test_results_are_optimal_and_verified(self):
        res = max_progression_free(F3, 2)
        assert res.optimal
        assert res.witness.size == 4
        assert is_progression_free(res.witness)[0]

    def test_known_maximum_n3(self, cap9_search):
        assert cap9_search.best_size == 9
        assert cap9_search.optimal

    def test_budget_exhaustion_is_not_an_error(self):
        res = max_progression_free(F3, 3, node_budget=20)
        assert not res.optimal
        assert res.best_size >= 1
        assert is_progression_free(res.witness)[0]

    def test_ceiling(self):
        with pytest.raises(ValueError, match="greedy"):
            max_progression_free(F3, 7)

    def test_parallel_value_matches_sequential(self):
        seq = max_progression_free(F3, 2, workers=1)
        par = max_progression_free(F3, 2, workers=2)
        assert par.best_size == seq.best_size == 4
        assert par.optimal

    def test_parallel_n3_deterministic(self, cap9_search):
        par = max_progression_free(F3, 3, workers=4)
        assert par.best_size == cap9_search.best_size == 9
        assert par.optimal
        again = max_progression_free(F3, 3, workers=4)
        assert again.best_size == 9 and again.witness == par.witness

    def test_parallel_budget_split(self):
        budgeted = max_progression_free(F3, 3, node_budget=50, workers=4)
        assert not budgeted.optimal
        assert budgeted.nodes_explored <= 50
        assert is_progression_free(budgeted.witness)[0]

    @pytest.mark.parametrize(
        "budget, workers", [(0, 1), (1, 1), (20, 1), (0, 2), (1, 4), (50, 4), (5000, 2)]
    )
    def test_budget_caps_nodes_explored(self, budget, workers):
        res = max_progression_free(F3, 3, node_budget=budget, workers=workers)
        assert res.nodes_explored <= budget
        assert not res.optimal
        assert res.best_size >= 8 and is_progression_free(res.witness)[0]

    def test_budget_counts_expanded_nodes_only(self, cap9_search):
        """An exhaustive search of N nodes fits a budget of exactly N and is cut by N - 1."""
        full = cap9_search.nodes_explored
        exact = max_progression_free(F3, 3, node_budget=full)
        assert exact.optimal and exact.nodes_explored == full
        assert exact.witness == cap9_search.witness
        short = max_progression_free(F3, 3, node_budget=full - 1)
        assert not short.optimal and short.nodes_explored == full - 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            max_progression_free(F3, 2, node_budget=-1)

    def test_monotone_growth(self, cap9_search):
        sizes = {
            1: max_progression_free(F3, 1).best_size,
            2: max_progression_free(F3, 2).best_size,
            3: cap9_search.best_size,
        }
        assert sizes[1] <= sizes[2] <= sizes[3]
        assert sizes[2] <= 3 * sizes[1]
        assert sizes[3] <= 3 * sizes[2]

    def test_search_result_invariant(self):
        line = PointSet.from_points(F3, 1, [(0,), (1,), (2,)])
        with pytest.raises(ProgressionFound):
            SearchResult(3, line, True, 0, 0.0)
        with pytest.raises(ValueError):
            SearchResult(5, PointSet.from_indices(F3, 1, [0]), True, 0, 0.0)


class TestWorkers:
    def test_worker_count_must_be_in_range(self):
        for k in (0, -1, sets._MAX_WORKERS + 1):
            with pytest.raises(ValueError, match="threads"):
                max_progression_free(F3, 2, workers=k)

    def test_pool_capped_by_cpus_and_tasks(self, monkeypatch):
        """A split search runs in at most min(workers, subtrees, CPUs)
        processes, the caller and the children it forks, over more than one and
        at most 4 * workers + 1 subtrees; a split that spends the budget forks
        no child."""
        subtrees, children = [], []
        split, start = sets._split, multiprocessing.process.BaseProcess.start

        def recording_split(*args, **kwargs):
            result = split(*args, **kwargs)
            subtrees.append(len(result[0]))
            return result

        def recording_start(process):
            children.append(process)
            start(process)

        monkeypatch.setattr(sets, "_split", recording_split)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        monkeypatch.setattr(sets.os, "cpu_count", lambda: 2)
        for workers in (3, sets._MAX_WORKERS):
            subtrees.clear()
            children.clear()
            res = max_progression_free(F3, 3, workers=workers)
            [tasks] = subtrees
            assert len(children) + 1 == min(workers, tasks, 2) and 1 < tasks <= 4 * workers + 1
            assert res.best_size == 9 and res.optimal
        children.clear()
        max_progression_free(F3, 3, node_budget=200, workers=sets._MAX_WORKERS)
        assert children == []  # the split spends the whole budget; no subtree is left a share

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="children are forked")
    @pytest.mark.parametrize("failure", ["raise", "exit", "caller"])
    def test_failing_child_fails_the_search(self, monkeypatch, failure):
        """A child whose walk raises, or that exits without sending its results,
        makes the search raise in the caller instead of hanging it; so does a
        walk that raises in the caller."""
        caller, walk = os.getpid(), sets._walk

        def walk_failing_in_children(*args):
            if os.getpid() == caller:
                time.sleep(0.05)  # leaves subtrees for the child to claim
                if failure == "caller":
                    raise ArithmeticError("walk failed in the caller")
                return walk(*args)
            if failure == "exit":
                os._exit(3)
            raise ArithmeticError("walk failed in a child")

        monkeypatch.setattr(sets, "_walk", walk_failing_in_children)
        monkeypatch.setattr(sets.os, "cpu_count", lambda: 2)
        expected = EOFError if failure == "exit" else ArithmeticError
        with _deadline(60), pytest.raises(expected):
            max_progression_free(F3, 3, workers=2)
        assert multiprocessing.active_children() == []


def _reference_search(p: int, n: int, budget: int | None, workers: int) -> tuple:
    """(best size, witness indices, optimal, nodes) of a split search, in one
    process: `_split`, `_walk` on each subtree left a share of the budget from
    the split's incumbent, then the merge in subtree order."""
    seed = greedy_progression_free(PrimeField(p), n)
    tasks, best, chosen, nodes = sets._split(p, n, ([0], (1 << p**n) - 2), seed.size, budget, 4 * workers)
    q, r = divmod(budget - nodes, len(tasks)) if budget is not None and tasks else (None, 0)
    shares = [None if q is None else q + (i < r) for i in range(len(tasks))]
    walks = [sets._walk(p, n, task, best, share) for task, share in zip(tasks, shares) if share != 0]
    optimal = len(walks) == len(tasks)
    for pending, size, found, walked in walks:
        nodes += walked
        optimal = optimal and not pending
        if size > best:
            best, chosen = size, found
    return best, seed.indices() if chosen is None else chosen, optimal, nodes


@st.composite
def split_searches(draw):
    """(p, n, budget, workers): a small ambient, exhaustive or with a budget
    of 0, 1 or up to 20,000 nodes, or F_3^4 with a budget, at 2 to 4 workers."""
    p, n = draw(st.sampled_from([(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)]))
    drawn = st.sampled_from([0, 1]) | st.integers(2, 20_000)
    budget = draw(drawn if (p, n) == (3, 4) else st.none() | drawn)
    return p, n, budget, draw(st.sampled_from([2, 3, 4]))


class TestSplitSearch:
    """The search in forked processes against the same split walked in one
    process. CPUs are reported as 4, so up to four processes share the
    subtree counter on any host."""

    @settings(max_examples=30, deadline=None)
    @given(case=split_searches())
    @example(case=(7, 2, None, 2))
    @example(case=(3, 3, None, 4))
    @example(case=(3, 4, 20_000, 3))
    def test_matches_split_walked_in_one_process(self, case):
        p, n, budget, workers = case
        with mock.patch.object(sets.os, "cpu_count", lambda: 4), _deadline(120):
            res = max_progression_free(PrimeField(p), n, node_budget=budget, workers=workers)
        expected = _reference_search(p, n, budget, workers)
        assert (res.best_size, res.witness.indices(), res.optimal, res.nodes_explored) == expected
        assert multiprocessing.active_children() == []


WALK_AMBIENTS = [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)]


@st.composite
def walk_starts(draw):
    """(p, n, state, best, budget): the search's root with the greedy
    incumbent, or one subtree of `_split` at 4, 8 or 16 targets with the
    incumbent the split reached, and a budget of 0, 1 or up to 20,000 nodes."""
    p, n = draw(st.sampled_from(WALK_AMBIENTS))
    state = ([0], (1 << p**n) - 2)
    best = greedy_progression_free(PrimeField(p), n).size
    target = draw(st.sampled_from([None, 4, 8, 16]))
    if target is not None:
        tasks, best, _, _ = sets._split(p, n, state, best, None, target)
        state = draw(st.sampled_from(tasks or [state]))
    budget = draw(st.sampled_from([0, 1]) | st.integers(2, 20_000))
    return p, n, state, best, budget


class TestWalk:
    """The memoised depth-first walk against the plain branch and bound over
    explicit chosen lists (tests/oracles.py): the same nodes, incumbent and
    witness, and pending states whose chosen sets path[:depth] rebuilds."""

    @settings(max_examples=60, deadline=None)
    @given(case=walk_starts())
    @example(case=(3, 3, ([0], (1 << 27) - 2), 8, 0))
    @example(case=(3, 3, ([0], (1 << 27) - 2), 8, 1))
    @example(case=(3, 3, ([0], (1 << 27) - 2), 8, 10_000))
    @example(case=(3, 4, ([0], (1 << 81) - 2), 16, 20_000))
    def test_walk_matches_branch_and_bound(self, case):
        p, n, (chosen, avail), best, budget = case
        pending, size, witness, nodes = sets._walk(p, n, (chosen, avail), best, budget)
        expected = oracles.branch_and_bound(p, n, chosen, avail, best, budget)
        assert (size, witness, nodes) == expected[1:]
        assert sorted(pending) == sorted(expected[0])
        assert not pending or nodes == budget


ROW_AMBIENTS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 2)]


@functools.cache
def _tuple_rows(p: int, n: int) -> list[list[int]]:
    return [[oracles.pair_block_mask(j, a, p, n) for a in range(j)] for j in range(p**n)]


class TestBlockRows:
    """The search's row table against the per-pair tuple formula it replaced,
    for every j and every a < j (the search only includes j above its chosen
    points), with the rows built lazily in a drawn order."""

    @pytest.mark.parametrize("p, n", ROW_AMBIENTS)
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_rows_match_tuple_formula(self, p, n, data):
        order = data.draw(st.permutations(range(p**n)))
        rows = sets._BlockRows(p, n)
        assert [rows[j] for j in order] == [_tuple_rows(p, n)[j] for j in order]


class TestGreedy:
    def test_maximal_in_z3(self):
        for seed in range(5):
            assert greedy_progression_free(F3, 1, seed).size == 2

    def test_deterministic(self):
        a = greedy_progression_free(F3, 4, order_seed=123)
        b = greedy_progression_free(F3, 4, order_seed=123)
        assert a == b
        c = greedy_progression_free(F3, 4, order_seed=124)
        assert is_progression_free(c)[0]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_always_progression_free(self, seed):
        result = greedy_progression_free(F3, 2, order_seed=seed)
        assert is_progression_free(result)[0]
        assert result.size == 4  # greedy always completes a maximal cap here


class TestCapEquivalence:
    """For p = 3, 2 = -1 makes a + b = 2c the line equation a + b + c = 0, so
    the progression check must agree with the no-three-collinear oracle."""

    def test_full_line(self):
        pts = [(0,), (1,), (2,)]
        ps = PointSet.from_points(F3, 1, pts)
        assert oracles.has_line(pts) and is_progression_free(ps)[0] is False

    def test_small_sets(self):
        for ps in (PointSet.from_indices(F3, 2, [0, 5]), PointSet.empty(F3, 2)):
            assert is_progression_free(ps)[0] is not oracles.has_line(ps.points())

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 8), max_size=9))
    def test_random_subsets_agree(self, idxs):
        ps = PointSet.from_indices(F3, 2, idxs)
        assert is_progression_free(ps)[0] is not oracles.has_line(ps.points())


AMBIENTS = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 3), (7, 2), (11, 2)]
# one-digit key groups (k = 1) and three key groups; too large for the
# oracle greedy scan
KEY_AMBIENTS = [(251, 2), (3, 9)]


@st.composite
def index_sets(draw):
    p, n = draw(st.sampled_from(AMBIENTS + KEY_AMBIENTS))
    idxs = sorted(draw(st.sets(st.integers(0, p**n - 1), max_size=40)))
    doubled = draw(st.sets(st.integers(0, p**n - 1), max_size=20))
    monomials = st.tuples(*[st.integers(0, p - 1)] * n)
    terms = draw(st.dictionaries(monomials, st.integers(1, p - 1), max_size=4))
    return PrimeField(p), n, idxs, doubled, ReducedPoly(PrimeField(p), n, terms)


class TestKernelAgainstTupleLoops:
    """Every function on the numpy index kernel against the per-pair tuple
    loop it replaced (tests/oracles.py), at the module's block size and at
    blocks of a few entries, so that pairs straddle block boundaries."""

    @pytest.mark.parametrize("chunk", [sets._PAIR_CHUNK, 7], ids=["module_block", "block_7"])
    @settings(max_examples=150, deadline=None)
    @given(case=index_sets())
    def test_set_functions(self, chunk, case):
        field, n, idxs, doubled, f = case
        p = field.p
        pts = [oracles.point_coords(i, p, n) for i in idxs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sets, "_PAIR_CHUNK", chunk)
            ps = PointSet.from_indices(field, n, idxs)
            assert ps.indices() == idxs and ps.points() == pts
            ok, triple = is_progression_free(ps)
            assert ok is not oracles.has_progression(set(pts), p)
            assert triple == oracles.first_progression(pts, p)
            sums, doubles = pair_sums(ps)
            assert (set(sums), set(doubles)) == oracles.pair_sum_indices(pts, p)
            assert ok is ((sums & doubles).size == 0)  # the verdict `prove` reads off B & C
            if p == 3:
                assert ok is not oracles.has_line(pts)
            expected_halves = oracles.halves(pts, doubled, p)
            assert _halves_of(ps, doubled) == expected_halves
            assert _halves_of(ps, PointSet.from_indices(field, n, doubled)) == expected_halves
            gram = [
                [evaluate(f, tuple((x + y) % p for x, y in zip(a, b))) for b in pts] for a in pts
            ]
            assert gram_matrix(f, ps, ps).array.tolist() == gram
            bad = [
                (a, b, gram[i][j])
                for i, a in enumerate(pts)
                for j, b in enumerate(pts)
                if (gram[i][j] == 0) != (i != j)
            ]
            if bad:
                with pytest.raises(HypothesisViolation) as info:
                    check_diagonal_size_bound(f, ps, (p - 1) * n)
                a, b, value = bad[0]
                assert info.value.evidence == {"a": list(a), "b": list(b), "value": value}
            elif p**n <= DENSE_MATRIX_CEILING:  # the bound itself needs the dense shift grid
                assert check_diagonal_size_bound(f, ps, (p - 1) * n).set_size == len(pts)

    @pytest.mark.parametrize("chunk", [sets._PAIR_CHUNK, 7], ids=["module_block", "block_7"])
    @pytest.mark.parametrize("p, n", AMBIENTS)
    def test_greedy(self, p, n, chunk, monkeypatch):
        monkeypatch.setattr(sets, "_PAIR_CHUNK", chunk)
        for seed in range(10):
            result = greedy_progression_free(PrimeField(p), n, order_seed=seed)
            assert result.indices() == oracles.greedy_indices(p, n, seed)

    def test_product_cap_in_f3_9_spans_many_blocks(self):
        cap9 = [(x, y, (x * x + y * y) % 3) for x in range(3) for y in range(3)]
        product = [a + b + c for a in cap9 for b in cap9 for c in cap9]
        ps = PointSet.from_points(F3, 9, product)
        assert len(product) ** 2 > 10 * sets._PAIR_CHUNK
        assert is_progression_free(ps) == (True, None)
        last, before_last = ps.points()[-1], ps.points()[-2]
        mid = tuple((x + y) * 2 % 3 for x, y in zip(last, before_last))
        assert mid not in product
        ok, triple = is_progression_free(ps | PointSet.from_points(F3, 9, [mid]))
        assert not ok and mid in triple
        in_index_order = sorted(product + [mid], key=lambda c: c[::-1])
        assert triple == oracles.first_progression(in_index_order, 3)

    @pytest.mark.parametrize(
        "p, n", [(3, 1), (3, 6), (3, 9), (5, 4), (11, 3), (251, 2), (2053, 2)]
    )
    def test_key_sums_against_coordinate_sums(self, p, n):
        """One key sum and one lookup per digit group give the index of a + b
        and of the completion forms alpha*a + beta*b mod p, from tables of at
        most 2^12 entries, or 2p entries when 2p exceeds that (p = 2053)."""
        _, tables = sets._key_tables(p, n)
        assert tables.shape[1] <= max(sets._KEY_TABLE_CEILING, 2 * p)
        rng = np.random.default_rng(p * 31 + n)
        u, v = rng.integers(0, p, size=(2, 20, n))

        def index(coords):
            return sum(int(x) % p * p**i for i, x in enumerate(coords))

        got = np.zeros((len(u), len(v)), dtype=np.int64)
        for r, c, block in sets._pair_indices(u, v, p):
            got[r : r + block.shape[0], c : c + block.shape[1]] = block
        assert got.tolist() == [[index(a + b) for b in v] for a in u]
        (z_keys, _), (_, a_keys) = sets._form_keys(u, p), sets._form_keys(v, p)
        forms = [((p + 1) // 2, (p + 1) // 2), (2, p - 1), (p - 1, 2)]
        got = sets._key_sums(z_keys[:, :, :, None], a_keys[:, :, None, :], tables)
        assert got.tolist() == [[[index(x * a + y * b) for b in v] for a in u] for x, y in forms]
