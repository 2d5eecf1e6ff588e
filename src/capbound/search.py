"""Exact and greedy searches for progression-free subsets of F_p^n, on the key
kernel of `sets`, whose `is_progression_free` re-checks every witness
(`SearchResult`). No certificate command imports this module.

The exact search keeps non-negative Python-int masks. Its row table of
keep masks (`_BlockRows`) is built from the same kernel, one row per point
j it reaches. The depth-first `_walk` memoises the keep mask of each chosen
prefix, so including j costs about one AND, and goes on in place.
`_split`, the breadth-first split into subtrees, queues one-node `_walk`
calls, and `_walk_subtrees` walks the subtrees in the caller and in children
forked on `os.fork`, which talk to it through pipes. A node budget caps both,
and what the subtrees leave of it is handed on to those its shares cut.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import random
import signal
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ProgressionFound
from .field import PrimeField
from .sets import PointSet, _ambient_size, _coords_of, _key_sums, _key_tables, is_progression_free

__all__ = ["SearchResult", "max_progression_free", "greedy_progression_free", "EXACT_SEARCH_CEILING"]

EXACT_SEARCH_CEILING = 3**6


@dataclass
class SearchResult:
    """Outcome of a search; the witness is re-verified at construction."""

    best_size: int
    witness: PointSet
    optimal: bool
    nodes_explored: int

    def __post_init__(self) -> None:
        ok, triple = is_progression_free(self.witness)
        if not ok:
            raise ProgressionFound("search produced an invalid witness", triple)
        if self.witness.size != self.best_size:
            raise ValueError("witness size disagrees with best_size")


class _BlockRows(dict):
    """Row j, built on first lookup: entry a < j is the keep mask of {j, a},
    all p^n bits but the later additions it forbids, (j + a)/2, 2a - j and
    2j - a. The search only includes j above every chosen a, so a row holds
    the prefix a < j, one key-kernel pass for the three forms, and j's keep
    mask is the AND of row[a] over the chosen a, which `_walk` memoises."""

    def __init__(self, p: int, n: int) -> None:
        super().__init__()
        self._z, self._a = _form_keys(_coords_of(np.arange(p**n), p, n), p)
        self._tables, self._full = _key_tables(p, n)[1], (1 << p**n) - 1

    def __missing__(self, j: int) -> list[int]:
        x, y, z = _key_sums(self._z[:, :, j, None], self._a[:, :, :j], self._tables).tolist()
        row = self[j] = [self._full ^ (1 << u | 1 << v | 1 << w) for u, v, w in zip(x, y, z)]
        return row


# One table per process, shared by its subtrees: rows depend on (p, n, j) only.
_block_rows = functools.lru_cache(maxsize=1)(_BlockRows)


def _form_keys(coords: np.ndarray, p: int) -> np.ndarray:
    """Keys (2, G, 3, m) of alpha*z and beta*a over the rows of `coords`, for the forms
    alpha*z + beta*a completing a progression with z and a: (z + a)/2, 2z - a, 2a - z."""
    weights, _ = _key_tables(p, coords.shape[1])
    forms = np.array((((p + 1) // 2, (p + 1) // 2), (2, p - 1), (p - 1, 2)))
    return (forms.T[:, :, None, None] * coords % p @ weights.T).transpose(0, 3, 1, 2)


def _split(p: int, n: int, root: tuple, best: int, budget: int | None, target: int):
    """`_walk`'s result from `root`, breadth first by one-node walks until
    `target` states are pending: a node's include child queues before its
    exclude sibling, and a pruned node queues nothing."""
    todo = deque([root])
    limit = math.inf if budget is None else budget
    best_chosen, nodes = None, 0
    while todo and nodes < limit and len(todo) < target:
        pending, best, chosen, _ = _walk(p, n, todo.popleft(), best, 1)
        todo += reversed(pending)
        best_chosen, nodes = chosen or best_chosen, nodes + 1
    return list(todo), best, best_chosen, nodes


@functools.lru_cache(maxsize=1)
def _zero_level(p: int, n: int) -> dict[int, int]:
    """`_walk`'s level 0: every point of F_p^n keeps all of F_p^n yet. Read-only."""
    return dict.fromkeys(range(p**n), (1 << p**n) - 1)


def _walk(p: int, n: int, root: tuple, best: int, budget: int | None):
    """Include/exclude branch and bound from `root`, depth first, for at most
    `budget` nodes: (pending states, best, best_chosen or None, nodes).

    A state is (chosen, avail): chosen indices, increasing, and the mask of
    later indices still addable. A node with |chosen| + |avail| <= best is
    pruned; else j = min avail is included, first, and excluded. Chosen sets
    share one `path`. Pending states are one per depth: excluded[d], stored
    only on a descent from d, continues with chosen = path[:d], and a pruned
    node resumes the deepest. An include child that fails the bound is
    counted where it is made and the walk goes on with its exclude sibling;
    one the budget cuts is descended to, to be pending as the current state.
    levels[d][j] memoises the AND of rows[j][a] over path[:d] (level 0, all
    full, is shared read-only by every walk in F_p^n): including j at depth
    d ANDs only the levels above the deepest holding j, and the include
    child is avail & keep; only a descent from d uses level d + 1, so it
    makes that level afresh. The memo, at most depth * p^n masks, is
    dropped on return. `size` = |avail|: one less on an exclude, the
    include child's count on a descent, recounted on a backtrack."""
    rows = _block_rows(p, n)
    chosen, avail = root
    start = depth = len(chosen)
    path = chosen + [0] * (size := avail.bit_count())  # each include takes one point of avail
    levels = [_zero_level(p, n)] + [{} for _ in chosen]
    level = levels[depth]
    excluded = [0] * len(path)
    limit = math.inf if budget is None else budget
    best_chosen, nodes = None, 0
    while nodes < limit:
        nodes += 1
        if depth + size <= best:
            if depth == start:
                return [], best, best_chosen, nodes
            depth, avail = depth - 1, excluded[depth - 1]
            size, level = avail.bit_count(), levels[depth]
            continue
        j = (avail ^ (avail - 1)).bit_length() - 1
        if (keep := level.get(j)) is None:
            k = depth - 1
            while (keep := levels[k].get(j)) is None:
                k -= 1
            row = rows[j]
            while k < depth:
                keep &= row[path[k]]
                k += 1
                levels[k][j] = keep
        avail ^= 1 << j
        path[depth] = j
        if depth >= best:
            best, best_chosen = depth + 1, path[: depth + 1]
        include = avail & keep
        if depth + 1 + (count := include.bit_count()) > best or nodes == limit:
            excluded[depth], avail, size = avail, include, count
            depth += 1
            levels[depth:] = [level := {}]
        else:
            nodes += 1
            size -= 1
    pending = [(path[:d], excluded[d]) for d in range(start, depth)]
    return pending + [(path[:depth], avail)], best, best_chosen, nodes


_MAX_WORKERS = 256  # most workers an exact search may split for (4 subtrees each)


def _check_search_options(n: int, node_budget: int | None, workers: int) -> None:
    """Refuse n < 1, a negative node budget and a worker count outside [1, _MAX_WORKERS]."""
    if n < 1:
        raise ValueError("n must be positive")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"threads must be in [1, {_MAX_WORKERS}], got {workers}")


def _walk_subtrees(p: int, n: int, best: int, runs: list[tuple], procs: int) -> list[tuple]:
    """`_walk` from `best` on each (root, budget) of `runs`, in their order. With `os.fork`,
    the caller and procs - 1 children claim runs, last first, as 2-byte indices from one pipe.
    The caller's own error raises here; a child's, or a child that died unsent, raises a
    ChildProcessError. No child outlives this."""
    if procs <= 1 or not hasattr(os, "fork"):
        return [_walk(p, n, root, best, budget) for root, budget in runs]
    claims, queue = os.pipe()  # at most 4 * _MAX_WORKERS + 1 indices: one write below PIPE_BUF
    os.write(queue, b"".join(i.to_bytes(2, "big") for i in reversed(range(len(runs)))))
    os.close(queue)  # a claim past the last index then reads EOF

    def walk_claimed() -> dict:
        done = {}
        while claim := os.read(claims, 2):
            i = int.from_bytes(claim, "big")
            done[i] = _walk(p, n, runs[i][0], best, runs[i][1])
        return done

    children = {}  # pid -> the read end of the pipe its results come down
    try:
        for _ in range(procs - 1):
            reader, writer = os.pipe()
            if (pid := os.fork()) == 0:  # a child inherits imports and row table, and leaves by _exit
                try:
                    try:
                        data = pickle.dumps(walk_claimed())
                    except Exception as exc:  # sent as text, which any error has
                        data = pickle.dumps(repr(exc))
                    with open(writer, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            children[pid] = reader
            os.close(writer)  # the child's copy is then the only one, so its exit reads as EOF
        results = walk_claimed()
        for pid, reader in children.items():
            results.update(_results_of(pid, reader))
    finally:
        os.close(claims)
        for pid, reader in children.items():
            os.close(reader)
            os.kill(pid, signal.SIGKILL)  # a child that has sent its results has nothing left to do
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(runs))]


def _results_of(pid: int, reader: int) -> dict:
    """The results the search child `pid` sent down the pipe `reader`; a
    ChildProcessError when it sent its error instead, or nothing."""
    try:
        done = pickle.load(open(reader, "rb", closefd=False))
    except EOFError:
        raise ChildProcessError(f"search worker {pid} ended without sending its results") from None
    if isinstance(done, str):
        raise ChildProcessError(f"search worker {pid} failed: {done}")
    return done


def max_progression_free(
    field: PrimeField,
    n: int,
    node_budget: int | None = None,
    workers: int = 1,
) -> SearchResult:
    """Maximum progression-free subset of F_p^n by branch and bound.

    Points are scanned in index order, branching include/exclude with the
    bound size + |remaining unblocked| <= incumbent. Translates of
    progression-free sets are progression-free (midpoints are affine
    invariant), so the search fixes 0 as a member. One worker walks the tree
    as one subtree; more split it breadth-first into 4 * workers, walked from
    the split's incumbent by at most min(workers, CPU count) processes, the
    caller among them; results merge in subtree order, so the output does
    not depend on scheduling. `workers` must lie in [1, _MAX_WORKERS].

    `node_budget` caps `nodes_explored`: the split spends its nodes first
    and the subtrees share the rest equally. The caller then hands what the
    subtrees left unspent on to those left pending, in subtree order: each
    walks its pending states on, the deepest (last) first, from its own
    incumbent, which is the walk a larger share would have made. So a
    budget that covers the unbudgeted search gives its result. A spent
    budget yields optimal=False, not an error.
    """
    _check_search_options(n, node_budget, workers)
    total = field.p**n
    if total > EXACT_SEARCH_CEILING:
        raise ValueError(
            f"p^n = {total} exceeds the exact-search ceiling {EXACT_SEARCH_CEILING}; "
            "use the greedy search for spaces this large"
        )
    seed_set = greedy_progression_free(field, n, order_seed=0)
    tasks, best, best_chosen, nodes = [([0], (1 << total) - 2)], seed_set.size, None, 0
    if workers > 1:
        tasks, best, best_chosen, nodes = _split(field.p, n, tasks[0], best, node_budget, 4 * workers)
    shares = [None] * len(tasks)
    if node_budget is not None and tasks:
        q, r = divmod(node_budget - nodes, len(tasks))
        shares = [q + (i < r) for i in range(len(tasks))]
    procs = min(workers, len(tasks) - shares.count(0), os.cpu_count() or 1)  # no child when no share is left
    results = _walk_subtrees(field.p, n, best, list(zip(tasks, shares)), procs)
    nodes += sum(result[3] for result in results)
    exhausted = True
    for pending, size, chosen, _ in results:
        while pending and nodes < node_budget:  # cut by its share: walked on, deepest state first
            more, size, deeper, spent = _walk(field.p, n, pending[-1], size, node_budget - nodes)
            pending, chosen, nodes = pending[:-1] + more, deeper or chosen, nodes + spent
        exhausted = exhausted and not pending
        if size > best:
            best, best_chosen = size, chosen

    witness = seed_set if best_chosen is None else PointSet.from_indices(field, n, best_chosen)
    return SearchResult(best_size=best, witness=witness, optimal=exhausted, nodes_explored=nodes)


def greedy_progression_free(field: PrimeField, n: int, order_seed: int = 0) -> PointSet:
    """Scan points in a seeded pseudo-random order, keeping what fits.

    A point is kept unless it is blocked: accepting z blocks, for every
    earlier chosen a, the three points (z + a)/2, 2z - a and 2a - z that
    would complete a progression with {z, a}. Deterministic for a fixed
    seed. The result is not re-verified here: `SearchResult` verifies every
    witness a search returns.
    """
    p = field.p
    total = _ambient_size(field, n)
    order = list(range(total))
    random.Random(order_seed).shuffle(order)
    _, tables = _key_tables(p, n)
    blocked = np.zeros(total, dtype=bool)
    chosen: list[int] = []
    a_keys = np.empty((len(tables), 3, 64), dtype=np.int64)  # of each chosen a, per form
    for idx in order:
        if blocked[idx]:
            continue
        z_keys, keys = _form_keys(_coords_of([idx], p, n), p)
        blocked[_key_sums(z_keys, a_keys[:, :, : len(chosen)], tables)] = True
        if len(chosen) == a_keys.shape[2]:
            a_keys = np.concatenate([a_keys, np.empty_like(a_keys)], axis=2)
        a_keys[:, :, len(chosen)] = keys[:, :, 0]
        chosen.append(idx)
    return PointSet.from_indices(field, n, chosen)
