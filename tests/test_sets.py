import contextlib
import functools
import json
import os
import re
import signal
import time
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from capbound import cli, search, sets
from capbound.errors import HypothesisViolation, ProgressionFound
from capbound.gf import PrimeField
from capbound.proof import _halves_of
from capbound.reference import DENSE_MATRIX_CEILING, ReducedPoly, check_diagonal_size_bound, evaluate, gram_matrix
from capbound.search import SearchResult, greedy_progression_free, max_progression_free
from capbound.sets import PointSet, is_progression_free, load_json, pair_sums
from oracles import has_progression, max_pf_all_subsets

F3 = PrimeField(3)
F5 = PrimeField(5)
# coordinates a point file or a caller may give, valid or not
COORDINATE = st.integers(-1, 3) | st.sampled_from([True, 1.0, "1", 2**70, np.int64(2), np.bool_(True)])


def assert_no_child():
    """This process has no child, running or unreaped: `waitpid(-1)` finds none."""
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_from_indices_matches_bitwise_loop(self, data):
        """The set has the mask that OR-ing in each index gives, repeats
        allowed; the first index outside [0, p^n), in input order and
        however large, is the one the error names."""
        p, n = data.draw(st.sampled_from([(3, 1), (3, 4), (5, 2), (7, 3)]))
        total = p**n
        indices = data.draw(st.lists(st.integers(0, total - 1), max_size=40))
        for bad in data.draw(st.lists(st.integers(-(2**70), 2**70).filter(lambda i: not 0 <= i < total), max_size=2)):
            indices.insert(data.draw(st.integers(0, len(indices))), bad)
        mask = 0
        for i in indices:
            if not 0 <= i < total:
                with pytest.raises(ValueError, match=re.escape(f"point index {i} out of range [0, {total})")):
                    PointSet.from_indices(PrimeField(p), n, iter(indices))
                return
            mask |= 1 << i
        assert PointSet.from_indices(PrimeField(p), n, iter(indices)).mask == mask

    def test_set_algebra(self):
        a = PointSet.from_indices(F3, 1, [0, 1])
        b = PointSet.from_indices(F3, 1, [1, 2])
        assert (a & b).indices() == [1]
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

    def test_parse_auto_detect(self, tmp_path):
        """The CLI's reader tells a JSON point set from a text one by its first character."""
        ps = PointSet.from_points(F3, 2, [(1, 1)])
        for name, text in (("set.json", "  " + json.dumps(ps.to_json())), ("set.txt", ps.to_text())):
            (tmp_path / name).write_text(text)
            assert cli._load_point_set(str(tmp_path / name), "prove") == ps

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
            lambda: PointSet.from_text("p=3 n=2000000\n"),
            lambda: greedy_progression_free(F3, 2_000_000),
        ):
            with pytest.raises(ValueError, match="at most 16777216 points"):
                make()
        assert time.perf_counter() - start < 0.25

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate point \\(0,\\)"):
            PointSet.from_text("p=3 n=1\n0\n0\n1\n")
        data = {"p": 3, "n": 2, "points": [[1, 2], [0, 0], [1, 2]]}
        with pytest.raises(ValueError, match="duplicate point \\(1, 2\\)"):
            PointSet.from_json(load_json(json.dumps(data)))
        with pytest.raises(ValueError, match="duplicate point \\(2, 1\\)"):  # the repeated point, not the first
            PointSet.from_points(F3, 2, [(0, 0), (2, 1), (1, 2), (2, 1)])

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

    def test_pair_bound(self):
        """PAIR_BOUND = 2^25 pairs a < b admits 8192 points and refuses 8193."""
        _, C = pair_sums(PointSet.from_indices(F3, 9, range(8192)))
        assert C.size == 8192
        with pytest.raises(ValueError, match="8193 points would take 33558528 pairs, above the pair bound 33554432"):
            pair_sums(PointSet.from_indices(F3, 9, range(8193)))


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
            SearchResult(3, line, True, 0)
        with pytest.raises(ValueError):
            SearchResult(5, PointSet.from_indices(F3, 1, [0]), True, 0)


class TestWorkers:
    def test_worker_count_must_be_in_range(self):
        for k in (0, -1, search._MAX_WORKERS + 1):
            with pytest.raises(ValueError, match="threads"):
                max_progression_free(F3, 2, workers=k)

    def test_pool_capped_by_cpus_and_tasks(self, monkeypatch):
        """A split search runs in at most min(workers, subtrees, CPUs)
        processes, the caller and the children it forks, over more than one and
        at most 4 * workers + 1 subtrees; a split that spends the budget forks
        no child."""
        subtrees, forks = [], []
        split, fork, caller = search._split, os.fork, os.getpid()

        def recording_split(*args, **kwargs):
            result = split(*args, **kwargs)
            subtrees.append(len(result[0]))
            return result

        def recording_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(search, "_split", recording_split)
        monkeypatch.setattr(search.os, "fork", recording_fork)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        for workers in (3, search._MAX_WORKERS):
            subtrees.clear()
            forks.clear()
            res = max_progression_free(F3, 3, workers=workers)
            [tasks] = subtrees
            assert len(forks) + 1 == min(workers, tasks, 2) and 1 < tasks <= 4 * workers + 1
            assert set(forks) == {caller} and res.best_size == 9 and res.optimal
        forks.clear()
        max_progression_free(F3, 3, node_budget=200, workers=search._MAX_WORKERS)
        assert forks == []  # the split spends the whole budget; no subtree is left a share

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="children are forked")
    @pytest.mark.parametrize("failure", ["raise", "exit", "caller", "unpicklable", "killed"])
    def test_failing_child_fails_the_search(self, monkeypatch, failure):
        """A child whose walk raises, even an error that cannot be pickled, or
        that exits or is killed without sending its results, makes the search
        raise a ChildProcessError in the caller, naming the child and its error,
        instead of hanging it; a walk that raises in the caller raises its own
        error. No child is left either way."""
        caller, walk = os.getpid(), search._walk

        class Unpicklable(ArithmeticError):
            """A local class: pickle cannot find it by name."""

        def walk_failing_in_children(*args):
            if args[-1] == 1:  # a one-node step of the split, which runs before the launch
                return walk(*args)
            if os.getpid() == caller:
                time.sleep(0.05)  # leaves subtrees for the child to claim
                if failure == "caller":
                    raise ArithmeticError("walk failed in the caller")
                return walk(*args)
            if failure == "exit":
                os._exit(3)
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "unpicklable":
                raise Unpicklable("walk failed in a child")
            raise ArithmeticError("walk failed in a child")

        monkeypatch.setattr(search, "_walk", walk_failing_in_children)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        with _deadline(60), pytest.raises(ArithmeticError if failure == "caller" else ChildProcessError) as raised:
            max_progression_free(F3, 3, workers=2)
        messages = {
            "caller": r"walk failed in the caller",
            "raise": r"search worker \d+ failed: ArithmeticError\('walk failed in a child'\)",
            "unpicklable": r"search worker \d+ failed: Unpicklable\('walk failed in a child'\)",
        }
        message = messages.get(failure, r"search worker \d+ ended without sending its results")
        assert re.fullmatch(message, str(raised.value))
        assert_no_child()

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("p, n", [(3, 3), (7, 2)])
    def test_split_search_without_fork(self, monkeypatch, p, n, workers):
        """Where `os.fork` is missing, the caller walks every subtree in
        `_walk_subtrees`' plain loop: the same result, and no child."""
        monkeypatch.delattr(search.os, "fork")
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        res = max_progression_free(PrimeField(p), n, workers=workers)
        expected = _reference_search(p, n, None, workers)
        assert (res.best_size, res.witness.indices(), res.optimal, res.nodes_explored) == expected
        assert_no_child()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("p, n, budget", [(3, 3, 21_100), (7, 2, 1_000_000)])
    def test_budget_covering_the_search_gives_its_result(self, p, n, budget, workers):
        """A subtree's unspent share is handed on, so no subtree starves: a
        budget above the unbudgeted node count gives the unbudgeted result."""
        unbudgeted = max_progression_free(PrimeField(p), n, workers=workers)
        res = max_progression_free(PrimeField(p), n, node_budget=budget, workers=workers)
        assert unbudgeted.optimal and unbudgeted.nodes_explored <= budget
        assert (res.best_size, res.witness, res.optimal, res.nodes_explored) == (
            unbudgeted.best_size, unbudgeted.witness, True, unbudgeted.nodes_explored
        )


def _resumed(p: int, n: int, pending: list, best: int, budget: int) -> tuple:
    """`_walk`'s tuple for walking on from its `pending` states, last (deepest)
    first, each from the incumbent the previous one reached, for `budget` nodes."""
    pending, found, nodes = list(pending), None, 0
    while pending and nodes < budget:
        more, best, deeper, walked = search._walk(p, n, pending.pop(), best, budget - nodes)
        pending, found, nodes = pending + more, deeper or found, nodes + walked
    return pending, best, found, nodes


def _reference_search(p: int, n: int, budget: int | None, workers: int) -> tuple:
    """(best size, witness indices, optimal, nodes) of a split search, in one
    process: `_split`, `_walk` on each subtree for its share of the budget
    from the split's incumbent, then, in subtree order, each subtree left
    pending walks its deepest pending state on from its own incumbent while
    budget is unspent, and the merge."""
    seed = greedy_progression_free(PrimeField(p), n)
    tasks, best, chosen, nodes = search._split(p, n, ([0], (1 << p**n) - 2), seed.size, budget, 4 * workers)
    q, r = divmod(budget - nodes, len(tasks)) if budget is not None and tasks else (None, 0)
    shares = [None if q is None else q + (i < r) for i in range(len(tasks))]
    walks = [search._walk(p, n, task, best, share) for task, share in zip(tasks, shares)]
    nodes += sum(walked for *_, walked in walks)
    optimal = True
    for pending, size, found, _ in walks:
        if budget is not None:
            pending, size, deeper, walked = _resumed(p, n, pending, size, budget - nodes)
            found, nodes = deeper or found, nodes + walked
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
        with mock.patch.object(search.os, "cpu_count", lambda: 4), _deadline(120):
            res = max_progression_free(PrimeField(p), n, node_budget=budget, workers=workers)
        expected = _reference_search(p, n, budget, workers)
        assert (res.best_size, res.witness.indices(), res.optimal, res.nodes_explored) == expected
        assert_no_child()


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
        tasks, best, _, _ = search._split(p, n, state, best, None, target)
        state = draw(st.sampled_from(tasks or [state]))
    budget = draw(st.sampled_from([0, 1]) | st.integers(2, 20_000))
    return p, n, state, best, budget


class TestWalk:
    """The memoised depth-first walk against the plain branch and bound over
    explicit chosen lists (tests/oracles.py): the same nodes, incumbent and
    witness, and pending states whose chosen sets path[:depth] rebuilds. The
    examples include the roots of F_5^3 and F_3^6 from the greedy incumbent,
    whose masks span 125 and 729 bits."""

    @settings(max_examples=60, deadline=None)
    @given(case=walk_starts())
    @example(case=(3, 3, ([0], (1 << 27) - 2), 8, 0))
    @example(case=(3, 3, ([0], (1 << 27) - 2), 8, 1))
    @example(case=(3, 3, ([0], (1 << 27) - 2), 8, 10_000))
    @example(case=(3, 4, ([0], (1 << 81) - 2), 16, 20_000))
    @example(case=(5, 3, ([0], (1 << 125) - 2), 15, 20_000))
    @example(case=(3, 6, ([0], (1 << 729) - 2), 69, 20_000))
    def test_walk_matches_branch_and_bound(self, case):
        p, n, (chosen, avail), best, budget = case
        pending, size, witness, nodes = search._walk(p, n, (chosen, avail), best, budget)
        expected = oracles.branch_and_bound(p, n, chosen, avail, best, budget)
        assert (size, witness, nodes) == expected[1:]
        assert sorted(pending) == sorted(expected[0])
        assert not pending or nodes == budget


class TestResume:
    """A walk for B1 nodes, then walked on from its pending states for B2
    more, against one walk for B1 + B2: the same nodes, incumbent, witness
    and pending states, in order. So a subtree that a split search hands
    spare budget on to makes the walk a larger share would have made."""

    @settings(max_examples=75, deadline=None)
    @given(case=walk_starts(), more=st.sampled_from([0, 1]) | st.integers(2, 20_000))
    @example(case=(7, 2, ([0], (1 << 49) - 2), 9, 1), more=20_000)
    def test_resumed_walk_matches_one_walk(self, case, more):
        p, n, state, best, budget = case
        pending, size, witness, nodes = search._walk(p, n, state, best, budget)
        resumed, size, found, walked = _resumed(p, n, pending, size, more)
        expected = search._walk(p, n, state, best, budget + more)
        assert (resumed, size, found or witness, nodes + walked) == expected


def _oracle_split(p: int, n: int, root: tuple, best: int, budget: int | None, target: int):
    """Breadth first over one-node `oracles.branch_and_bound` calls until
    `target` states are pending: the oldest state is expanded, and the stack
    it returns is queued reversed, so the include child comes first."""
    todo = deque([root])
    best_chosen, nodes = None, 0
    while todo and (budget is None or nodes < budget) and len(todo) < target:
        stack, best, found, walked = oracles.branch_and_bound(p, n, *todo.popleft(), best, 1)
        todo.extend(reversed(stack))
        nodes += walked
        best_chosen = best_chosen if found is None else found
    return list(todo), best, best_chosen, nodes


@st.composite
def split_starts(draw):
    """(p, n, budget, target): the search's root in a small ambient, with a
    budget of none, 0, 1 or up to 20,000 nodes and 2 to 64 target states."""
    p, n = draw(st.sampled_from(WALK_AMBIENTS))
    budget = draw(st.none() | st.sampled_from([0, 1]) | st.integers(2, 20_000))
    return p, n, budget, draw(st.integers(2, 64))


class TestSplit:
    """The breadth-first split against the plain branch and bound expanded
    one node at a time: the same pending states in order, incumbent,
    witness and nodes, from the greedy incumbent."""

    @settings(max_examples=40, deadline=None)
    @given(case=split_starts())
    @example(case=(3, 3, None, 12))
    @example(case=(7, 2, 0, 8))
    @example(case=(3, 4, 1, 64))
    @example(case=(5, 2, 20_000, 2))
    def test_split_matches_branch_and_bound(self, case):
        p, n, budget, target = case
        root, best = ([0], (1 << p**n) - 2), greedy_progression_free(PrimeField(p), n).size
        expected = _oracle_split(p, n, root, best, budget, target)
        assert search._split(p, n, root, best, budget, target) == expected


ROW_AMBIENTS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 2)]


@functools.cache
def _tuple_rows(p: int, n: int) -> list[list[int]]:
    full = (1 << p**n) - 1
    return [[full ^ oracles.pair_block_mask(j, a, p, n) for a in range(j)] for j in range(p**n)]


class TestBlockRows:
    """The search's row table against the per-pair tuple formula it replaced,
    as keep masks (all of F_p^n but the blocked points), for every j and
    every a < j (the search only includes j above its chosen points), with
    the rows built lazily in a drawn order."""

    @pytest.mark.parametrize("p, n", ROW_AMBIENTS)
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_rows_match_tuple_formula(self, p, n, data):
        order = data.draw(st.permutations(range(p**n)))
        rows = search._BlockRows(p, n)
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
            assert _halves_of(ps, PointSet.from_indices(field, n, doubled)) == expected_halves
            gram = [
                [evaluate(f, tuple((x + y) % p for x, y in zip(a, b))) for b in pts] for a in pts
            ]
            assert gram_matrix(f, ps, ps).tolist() == gram
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
        ok, triple = is_progression_free(PointSet.from_points(F3, 9, product + [mid]))
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
        (z_keys, _), (_, a_keys) = search._form_keys(u, p), search._form_keys(v, p)
        forms = [((p + 1) // 2, (p + 1) // 2), (2, p - 1), (p - 1, 2)]
        got = sets._key_sums(z_keys[:, :, :, None], a_keys[:, :, None, :], tables)
        assert got.tolist() == [[[index(x * a + y * b) for b in v] for a in u] for x, y in forms]
